package diskstore

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// codedImageSHA256 is the sha256 of the coded image TestCodedImageGolden
// writes. It was taken from the eager parity encoder, which built every
// parity frame of the cycle before the transmitter went on air; the
// image holds every parity byte of the cycle, so an encoder that differs
// in one byte changes it.
const codedImageSHA256 = "4145e0442f8ba7c06bb9649dad7d1257bf6b7d0efae00606306314cab085a132"

// TestCodedImageGolden pins the wire-cycle image of a coded four-channel
// shard broadcast — objects in 4 interleaved groups of 2 parity rows,
// tables in 1 group of 2 — end to end through the image writer: every
// content and parity slot of one cycle of every channel, the directory
// and the FEC descriptor.
func TestCodedImageGolden(t *testing.T) {
	x, err := dsi.Build(dataset.Uniform(600, 8, 21), dsi.Config{Capacity: 64, ObjectBytes: 512, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, x.NF / 8, 7 * x.NF / 8, x.NF},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := station.NewMultiTransmitterFEC(lay, wire.FECConfig{
		Table:  wire.FECCode{Groups: 1, Parity: 2},
		Object: wire.FECCode{Groups: 4, Parity: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, ok := InfoFor(tx, wire.StationMeta{})
	if !ok {
		t.Fatal("InfoFor refused a static coded transmitter")
	}
	path := filepath.Join(t.TempDir(), "coded.img")
	if err := WriteImageFile(path, tx, info); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != codedImageSHA256 {
		t.Fatalf("coded image sha256 %s, want %s", got, codedImageSHA256)
	}
}
