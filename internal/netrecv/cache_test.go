package netrecv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/wire"
)

func cacheMeta(n int, seed int64) wire.StationMeta {
	ds := dataset.Uniform(n, 7, seed)
	return wire.StationMeta{
		Dataset:  wire.StationDataset{Kind: "uniform", N: n, Order: 7, Seed: seed, Sum: ds.Checksum()},
		Capacity: 64, Channels: 1, Scheduler: "single",
	}
}

// TestCatalogCacheShared: identical meta documents share one build —
// the attach-storm guarantee.
func TestCatalogCacheShared(t *testing.T) {
	m := cacheMeta(400, 91)
	a, err := BuildCatalog(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCatalog(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.X != b.X || a.DS != b.DS || a.Lay != b.Lay {
		t.Fatal("identical meta did not share the cached build")
	}
	if a == b {
		t.Fatal("catalog shells must be per-call (live meta fields differ per fetch)")
	}

	// Live fields ride the fresh shell, not the cached one.
	m2 := m
	m2.Now = 99999
	c, err := BuildCatalog(m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.X != a.X {
		t.Fatal("live meta fields must not split the cache key")
	}
	if c.Meta.Now != 99999 {
		t.Fatalf("cached catalog carries stale Now %d", c.Meta.Now)
	}
}

// TestCatalogCacheKeyed: any derivation input change misses the cache.
func TestCatalogCacheKeyed(t *testing.T) {
	a, err := BuildCatalog(cacheMeta(400, 92), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCatalog(cacheMeta(400, 93), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.X == b.X {
		t.Fatal("different seeds shared one cached build")
	}
	m := cacheMeta(400, 92)
	m.Capacity = 128
	c, err := BuildCatalog(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.X == a.X {
		t.Fatal("different capacity shared one cached build")
	}
}

// TestCatalogCacheBypassed: caller-supplied datasets never touch the
// cache (they may be CSV loads the key cannot identify).
func TestCatalogCacheBypassed(t *testing.T) {
	m := cacheMeta(400, 94)
	ds := dataset.Uniform(400, 7, 94)
	a, err := BuildCatalog(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCatalog(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	if a.X == b.X {
		t.Fatal("caller-supplied dataset hit the cache")
	}
}

// TestCatalogCacheSingleFlight: a concurrent attach storm resolves to
// one shared build with no duplicate work visible.
func TestCatalogCacheSingleFlight(t *testing.T) {
	m := cacheMeta(500, 95)
	const clients = 32
	cats := make([]*Catalog, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cat, err := BuildCatalog(m, nil)
			if err != nil {
				t.Error(err)
				return
			}
			cats[i] = cat
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if cats[i] == nil || cats[i].X != cats[0].X {
			t.Fatalf("client %d did not share the single-flight build", i)
		}
	}
}

// TestCatalogCacheChecksumMismatch: a wrong station checksum still
// fails, cached or not.
func TestCatalogCacheChecksumMismatch(t *testing.T) {
	m := cacheMeta(400, 96)
	m.Dataset.Sum++
	for i := 0; i < 2; i++ {
		if _, err := BuildCatalog(m, nil); err == nil {
			t.Fatalf("call %d: checksum mismatch accepted", i)
		}
	}
}

// TestBootstrapRefusesHeaderlessObjects: a /v1/meta that describes
// objects (or packets) too small to carry the wire header describes a
// stream whose every header read would fail forever; the client refuses
// the catalog instead of hanging on it.
func TestBootstrapRefusesHeaderlessObjects(t *testing.T) {
	for _, lie := range []func(m *wire.StationMeta){
		func(m *wire.StationMeta) { m.ObjectBytes = 16 },
		func(m *wire.StationMeta) { m.Capacity, m.ObjectBytes = 16, 64 },
	} {
		m := cacheMeta(300, 97)
		lie(&m)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(m)
		}))
		_, err := Bootstrap(srv.URL, Options{})
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "16-byte") || !strings.Contains(err.Error(), "32-byte") {
			t.Fatalf("meta %+v: Bootstrap error %v, want one naming both sizes", m, err)
		}
	}
}
