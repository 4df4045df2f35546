package grounding

import (
	"context"
	"fmt"
	"testing"

	"tuffy/internal/db"
	"tuffy/internal/db/plan"
	"tuffy/internal/mln"
)

// The Table 6 lesion study only makes sense if every optimizer
// configuration produces semantically identical groundings. This pins that
// invariant across all four lesion configurations, on both test programs.
func TestGroundingInvariantUnderOptimizerLesions(t *testing.T) {
	configs := []struct {
		name string
		opts plan.Options
	}{
		{"full", plan.Options{}},
		{"forced-order", plan.Options{ForceJoinOrder: true}},
		{"nlj-only", plan.Options{NestedLoopOnly: true}},
		{"forced-order+nlj-only", plan.Options{ForceJoinOrder: true, NestedLoopOnly: true}},
	}
	for _, prog := range []struct{ name, src, ev string }{
		{"smokes", tinyProg, tinyEv},
		{"figure1", mln.Figure1Program, mln.Figure1Evidence},
	} {
		var want []string
		for _, cfg := range configs {
			p, err := mln.ParseProgramString(prog.src)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := mln.ParseEvidenceString(p, prog.ev)
			if err != nil {
				t.Fatal(err)
			}
			d := db.Open(db.Config{Plan: cfg.opts})
			ts, err := BuildTables(d, p, ev)
			if err != nil {
				t.Fatal(err)
			}
			res, err := GroundBottomUp(context.Background(), ts, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", prog.name, cfg.name, err)
			}
			got := canon(ts, res)
			if want == nil {
				want = got
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: config %s changed the grounding:\n got %v\nwant %v",
					prog.name, cfg.name, got, want)
			}
		}
	}
}

// Tiny buffer pools must not change grounding results, only I/O counts —
// the grounding queries stream through the pool correctly under memory
// pressure.
func TestGroundingUnderTinyBufferPool(t *testing.T) {
	p, err := mln.ParseProgramString(mln.Figure1Program)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := mln.ParseEvidenceString(p, mln.Figure1Evidence)
	if err != nil {
		t.Fatal(err)
	}
	d := db.Open(db.Config{BufferPoolPages: 2})
	ts, err := BuildTables(d, p, ev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GroundBottomUp(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}

	p2, _ := mln.ParseProgramString(mln.Figure1Program)
	ev2, _ := mln.ParseEvidenceString(p2, mln.Figure1Evidence)
	d2 := db.Open(db.Config{})
	ts2, _ := BuildTables(d2, p2, ev2)
	res2, err := GroundBottomUp(context.Background(), ts2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(canon(ts, res)) != fmt.Sprint(canon(ts2, res2)) {
		t.Fatal("buffer pool size changed grounding results")
	}
}
