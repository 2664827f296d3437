package dsi_test

import (
	"testing"

	"dsi/internal/dsi"
	"dsi/internal/massive"
)

// TestZeroPagesSurviveReplay replays a population on two workers — two
// sessions whose untouched page-table entries share the zero pages —
// over every arm, and holds the zero pages to all-zero afterwards. Under
// the race detector a write through them is also a data race.
func TestZeroPagesSurviveReplay(t *testing.T) {
	bed, err := massive.NewTestbed(massive.BedConfig{N: 2000, Order: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range bed.Arms {
		massive.Run(bed, arm, massive.Config{Clients: 200, Workers: 2})
	}
	if !dsi.ZeroPagesClean() {
		t.Fatal("a session wrote through a shared zero page")
	}
}
