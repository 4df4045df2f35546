package grounding

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
)

// cancelAfter is a context whose Err reports cancellation from its n+1-th
// poll on: the grounding workers poll it before each task, so a grounding
// under it stops after n tasks, whatever the scheduling.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// A grounding canceled part-way leaves no scan open, on predicate tables
// larger than a quarter of a 16-page pool (so every scan of them holds a
// scan cursor from its Open to its Close).
func TestCanceledGroundingClosesScans(t *testing.T) {
	ds := datagen.IE(datagen.IEConfig{Chains: 1500, Seed: 1})
	d := db.Open(db.Config{BufferPoolPages: 16})
	ts, err := BuildTables(d, ds.Prog, ds.Ev)
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for _, name := range d.TableNames() {
		if tab, _ := d.Table(name); tab.Blocks() > 4 {
			big++
		}
	}
	if big == 0 {
		t.Fatal("no predicate table spans more than a quarter of the pool")
	}
	for _, workers := range []int{1, 2} {
		ctx := &cancelAfter{Context: context.Background(), n: 3}
		if _, err := GroundBottomUp(ctx, ts, Options{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: canceled grounding returned %v", workers, err)
		}
		if ctx.polls.Load() <= ctx.n {
			t.Fatalf("%d workers: the grounding never saw the cancellation", workers)
		}
		if open := d.Pool().Stats().ScansOpen; open != 0 {
			t.Fatalf("%d workers: %d scans still open after a canceled grounding", workers, open)
		}
	}
}

// Grounding allocates a bounded number of objects per raw grounding: the
// scans decode into reused page buffers and the hash joins copy their
// build sides into flat arrays, so what is left is per query and per
// growth of an output slice, not per row. IE at 1 500 chains (70 280 raw
// groundings), one worker.
func TestGroundAllocsPerRaw(t *testing.T) {
	ds := datagen.IE(datagen.IEConfig{Chains: 1500, Seed: 1})
	ts, err := BuildTables(db.Open(db.Config{}), ds.Prog, ds.Ev)
	if err != nil {
		t.Fatal(err)
	}
	var raws int
	allocs := testing.AllocsPerRun(1, func() {
		res, err := GroundBottomUp(context.Background(), ts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		raws = res.Stats.NumGroundedRaw
	})
	// 0.017 per raw here; a scan that decodes every row into a fresh row and
	// a build side cloned row by row read 2.2.
	if per := allocs / float64(raws); per > 0.05 {
		t.Fatalf("%.0f allocations for %d raw groundings: %.3f per raw, bound 0.05", allocs, raws, per)
	}
}
