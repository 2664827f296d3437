// Command dsigen generates the evaluation datasets as CSV on stdout:
// one line per object with its ID (HC rank), cell coordinates, and
// Hilbert-curve value, sorted in broadcast (HC) order.
//
// With -emit-image it instead runs the out-of-core pipeline: the
// dataset streams through an external sort, which holds at most -budget
// object records in heap, into a mapped object file, and the broadcast
// built over it is written as a wire-cycle image file — the exact
// transmitter byte stream, servable by dsistation -image. The index is
// built in heap, at about 50 B a frame. A -real image is the default
// REAL-like dataset, the only one clients rebuild from the image's
// catalog document, so an -n or -order other than its own is refused.
//
// Usage:
//
//	dsigen -n 10000 -order 8 -seed 1 > uniform.csv
//	dsigen -real > real_like.csv
//	dsigen -n 10000000 -order 11 -emit-image u10m.img -budget 1000000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"dsi/internal/dataset"
	"dsi/internal/diskstore"
	"dsi/internal/dsi"
)

func main() {
	var (
		n     = flag.Int("n", 10000, "number of objects")
		order = flag.Uint("order", 8, "Hilbert curve order (grid is 2^order square)")
		seed  = flag.Int64("seed", 1, "generator seed")
		real  = flag.Bool("real", false, "generate the REAL-like clustered dataset (5848 Greek-city stand-in)")

		emitImage = flag.String("emit-image", "", "build a wire-cycle image at this path instead of CSV (out-of-core)")
		budget    = flag.Int("budget", 0, "max object records held in heap by the external sort (0 = default)")
		capacity  = flag.Int("capacity", 64, "packet capacity in bytes (with -emit-image)")
		segments  = flag.Int("segments", 1, "broadcast reorganization factor m (with -emit-image)")
		objB      = flag.Int("objbytes", 0, "object payload bytes, 0 = index default (with -emit-image)")
	)
	flag.Parse()

	if *emitImage != "" {
		if *real {
			if err := checkRealImageFlags(flag.CommandLine, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "dsigen: %v\n", err)
				os.Exit(2)
			}
		}
		if err := buildImage(*emitImage, *n, *order, *seed, *real,
			dsi.Config{Capacity: *capacity, Segments: *segments, ObjectBytes: *objB},
			*budget); err != nil {
			fmt.Fprintf(os.Stderr, "dsigen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var ds *dataset.Dataset
	if *real {
		cfg := dataset.DefaultRealConfig(*seed)
		if *n != 10000 { // only override the REAL default when asked
			cfg.N = *n
		}
		cfg.Order = *order
		ds = dataset.Clustered(cfg)
	} else {
		ds = dataset.Uniform(*n, *order, *seed)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# %s\n", ds.Name)
	fmt.Fprintln(w, "id,x,y,hc")
	for _, o := range ds.Objects {
		fmt.Fprintf(w, "%d,%d,%d,%d\n", o.ID, o.P.X, o.P.Y, o.HC)
	}
}

// buildImage runs the streaming build and reports what it wrote. The
// image is byte-identical to what the in-memory build transmits.
func buildImage(path string, n int, order uint, seed int64, real bool, cfg dsi.Config, budget int) error {
	ps := diskstore.UniformStream(n, order, seed)
	if real {
		ps = diskstore.RealStream(seed)
	}
	stats, err := diskstore.BuildImage(path, ps, cfg, diskstore.BuildOptions{Budget: budget})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dsigen: %s: %d objects, %d frames, %d slots/cycle, checksum %#x (%d spilled runs)\n",
		path, stats.Geo.N, stats.Geo.NF, stats.Geo.CycleSlots(), stats.Checksum, stats.SpilledRuns)
	return nil
}

// checkRealImageFlags refuses an -n or -order set in fs that differs
// from the default REAL-like configuration: clients rebuild a "real"
// image's dataset from dataset.DefaultRealConfig alone, so the image is
// built at that configuration and any other size or order would be
// ignored.
func checkRealImageFlags(fs *flag.FlagSet, seed int64) error {
	cfg := dataset.DefaultRealConfig(seed)
	want := map[string]string{"n": strconv.Itoa(cfg.N), "order": strconv.FormatUint(uint64(cfg.Order), 10)}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if w, ok := want[f.Name]; ok && err == nil && f.Value.String() != w {
			err = fmt.Errorf("-%s %s: a -real image is the default REAL-like dataset, whose -%s is %s", f.Name, f.Value, f.Name, w)
		}
	})
	return err
}
