// Catalog bootstrap: the broadcast-disk model makes the schedule
// catalog knowledge, not payload, so a network client first fetches
// the station's /v1/meta document, regenerates the identical dataset
// locally (deterministic generators keyed by kind and seed), rebuilds
// the identical index and layout, and proves the derivation with the
// dataset checksum before trusting a single decoded pointer.

package netrecv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// Catalog is everything a network client derives from the station's
// meta document: the dataset, the built index, the channel layout the
// directory version refers to, and the FEC code on air.
type Catalog struct {
	Meta wire.StationMeta
	DS   *dataset.Dataset
	X    *dsi.Index
	Lay  *dsi.Layout
	FEC  wire.FECConfig
}

// Bootstrap fetches baseURL/v1/meta and builds the catalog. Stations
// broadcasting a CSV-loaded dataset cannot be bootstrapped without the
// file; obtain it out of band and call BuildCatalog directly.
func Bootstrap(baseURL string, opt Options) (*Catalog, error) {
	opt = opt.withDefaults()
	cl := &http.Client{Timeout: opt.DialTimeout}
	resp, err := cl.Get(baseURL + "/v1/meta")
	if err != nil {
		return nil, fmt.Errorf("netrecv: meta fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("netrecv: meta fetch: %s", resp.Status)
	}
	var m wire.StationMeta
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("netrecv: meta decode: %w", err)
	}
	return BuildCatalog(m, nil)
}

// BuildCatalog derives the catalog from a meta document. ds supplies
// the dataset for kind "csv" stations (and overrides regeneration
// otherwise); nil regenerates from the document's kind, n, order and
// seed. The dataset checksum must match the station's.
//
// Regenerated catalogs (ds == nil) are served from a process-wide
// cache keyed on every derivation input, so an attach storm — many
// clients bootstrapping against the same station — costs one dataset
// regeneration and one index build, not one per client. The cached
// dataset, index, and layout are shared read-only; the returned
// Catalog itself is fresh and carries the caller's live meta fields.
func BuildCatalog(m wire.StationMeta, ds *dataset.Dataset) (*Catalog, error) {
	if ds == nil && m.Dataset.Kind != "csv" {
		return buildCatalogCached(m)
	}
	return buildCatalog(m, ds)
}

func buildCatalog(m wire.StationMeta, ds *dataset.Dataset) (*Catalog, error) {
	if ds == nil {
		switch m.Dataset.Kind {
		case "uniform":
			ds = dataset.Uniform(m.Dataset.N, m.Dataset.Order, m.Dataset.Seed)
		case "real":
			ds = dataset.Clustered(dataset.DefaultRealConfig(m.Dataset.Seed))
		case "csv":
			return nil, fmt.Errorf("netrecv: station broadcasts a csv dataset; supply it to BuildCatalog out of band")
		default:
			return nil, fmt.Errorf("netrecv: unknown dataset kind %q", m.Dataset.Kind)
		}
	}
	if m.Dataset.Sum != 0 && ds.Checksum() != m.Dataset.Sum {
		return nil, fmt.Errorf("netrecv: dataset checksum %#x does not match the station's %#x; catalogs diverge",
			ds.Checksum(), m.Dataset.Sum)
	}
	x, err := dsi.Build(ds, dsi.Config{
		Capacity:     m.Capacity,
		Segments:     m.Segments,
		ObjectBytes:  m.ObjectBytes,
		ReserveMCPtr: m.ReserveMCPtr,
	})
	if err != nil {
		return nil, fmt.Errorf("netrecv: catalog index build: %w", err)
	}
	if err := wire.CheckHeaderFits(x.Cfg.Capacity, x.Cfg.ObjectBytes); err != nil {
		return nil, fmt.Errorf("netrecv: station meta describes an undecodable stream: %w", err)
	}
	var lay *dsi.Layout
	switch m.Scheduler {
	case "", "single":
		lay = x.SingleLayout()
	case "split":
		lay, err = dsi.NewLayout(x, dsi.MultiConfig{
			Channels: m.Channels, Scheduler: dsi.SchedSplit, SwitchSlots: m.SwitchSlots,
		})
	case "shard":
		lay, err = dsi.NewLayout(x, dsi.MultiConfig{
			Channels: m.Channels, Scheduler: dsi.SchedShard, SwitchSlots: m.SwitchSlots,
			ShardBounds: m.ShardBounds,
		})
	default:
		err = fmt.Errorf("unknown scheduler %q", m.Scheduler)
	}
	if err != nil {
		return nil, fmt.Errorf("netrecv: catalog layout: %w", err)
	}
	cat := &Catalog{Meta: m, DS: ds, X: x, Lay: lay}
	if len(m.FECDesc) > 0 {
		cfg, _, err := wire.DecodeFECDesc(m.FECDesc)
		if err != nil {
			return nil, fmt.Errorf("netrecv: catalog FEC descriptor: %w", err)
		}
		cat.FEC = cfg
	}
	return cat, nil
}

// Version returns the directory version the catalog was cut for.
func (c *Catalog) Version() uint32 {
	if c.Meta.Version == 0 {
		return 1
	}
	return c.Meta.Version
}

// minWait is the floor applied to bootstrap waits so short
// WaitTimeouts tuned for slot reads don't starve stream start-up.
const minWait = 2 * time.Second

// bootstrapWait is how long receiver construction waits for the stream
// to come alive.
func bootstrapWait(opt Options) time.Duration {
	if opt.WaitTimeout > minWait {
		return opt.WaitTimeout
	}
	return minWait
}
