// Package diskstore is the out-of-core storage layer: it builds
// broadcast images of datasets that are never held in heap. The sort
// holds no more than a configured budget of object records, and the
// sorted objects are a mapped file; the index is built in heap, at
// about 200 B a frame.
//
// Three layers compose:
//
//   - An external-sort pipeline (Sorter): bounded-memory sorted-run
//     generation spilling to temp files, plus a k-way merge that
//     streams the globally sorted record sequence back. It is generic
//     over fixed-width records, the only record shape the broadcast
//     pipeline needs (objects, keys, STR items).
//   - The disk-backed build: BuildImage streams a generated dataset
//     through the sorter into a sorted object file (the HC broadcast
//     order), maps it as the dataset's objects, and images what
//     station.NewMultiTransmitter over dsi.Build's single-channel
//     layout transmits — the one cycle producer.
//   - The wire-cycle image (WriteImage / OpenImage):
//     the exact transmitter byte stream of a broadcast, one
//     fixed-stride record per slot, with a slot-offset footer. A
//     station mmaps the image and serves PacketAt(ch, abs) as a pure
//     slice into the file — zero materialization, O(1) startup — and
//     the footer carries the catalog meta document plus the streaming
//     dataset checksum, so network clients bootstrap and verify against
//     an image-backed station exactly as against an in-memory one.
//
// Every disk-built artifact is regression-enforced bit-identical to
// its in-memory counterpart: the image matches the transmitter's
// packets on all layouts (FEC included), and the mapped object file
// matches dataset.Uniform/Clustered.
package diskstore
