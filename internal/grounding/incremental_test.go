package grounding

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

// buildTS builds a TableSet over an already-constructed program + evidence.
func buildTS(t *testing.T, prog *mln.Program, ev *mln.Evidence) *TableSet {
	t.Helper()
	ts, err := BuildTables(db.Open(db.Config{}), prog, ev)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// translateDelta rebinds a delta's predicate pointers onto another program
// with identical declarations. Constant ids transfer as-is: both programs
// intern symbols in the same order (see datagen.RandomDelta).
func translateDelta(prog *mln.Program, d mln.Delta) mln.Delta {
	var out mln.Delta
	for _, op := range d.Ops {
		out.Ops = append(out.Ops, mln.DeltaOp{
			Pred:  prog.MustPredicate(op.Pred.Name),
			Args:  append([]int32(nil), op.Args...),
			Truth: op.Truth,
		})
	}
	return out
}

// requireBitIdentical asserts the two grounding results describe the same MRF
// bit for bit: atom count and order, clause list, weights, fixed cost. Atom
// identity crosses symbol tables via formatting (the two sides may come from
// independently parsed programs).
func requireBitIdentical(t *testing.T, label string, tsA *TableSet, a *Result, tsB *TableSet, b *Result) {
	t.Helper()
	if a.MRF.NumAtoms != b.MRF.NumAtoms {
		t.Fatalf("%s: NumAtoms %d != %d", label, a.MRF.NumAtoms, b.MRF.NumAtoms)
	}
	if a.MRF.FixedCost != b.MRF.FixedCost {
		t.Fatalf("%s: FixedCost %v != %v", label, a.MRF.FixedCost, b.MRF.FixedCost)
	}
	for i := 1; i <= a.MRF.NumAtoms; i++ {
		fa := a.MRF.Atoms[i].Format(tsA.Prog.Syms)
		fb := b.MRF.Atoms[i].Format(tsB.Prog.Syms)
		if fa != fb {
			t.Fatalf("%s: atom %d is %s vs %s", label, i, fa, fb)
		}
	}
	if len(a.MRF.Clauses) != len(b.MRF.Clauses) {
		t.Fatalf("%s: clause count %d != %d", label, len(a.MRF.Clauses), len(b.MRF.Clauses))
	}
	for i := range a.MRF.Clauses {
		ca, cb := a.MRF.Clauses[i], b.MRF.Clauses[i]
		if ca.Weight != cb.Weight || !reflect.DeepEqual(ca.Lits, cb.Lits) {
			t.Fatalf("%s: clause %d differs: %+v vs %+v", label, i, ca, cb)
		}
	}
}

// allPreds marks every predicate changed, forcing a full re-run.
func allPreds(prog *mln.Program) map[*mln.Predicate]bool {
	out := make(map[*mln.Predicate]bool)
	for _, p := range prog.Preds {
		out[p] = true
	}
	return out
}

// tinyDelta builds a hand-picked delta over the tiny fixture exercising every
// op shape: closed insert, closed retract, open truth set, open retract.
func tinyDelta(prog *mln.Program) mln.Delta {
	friend := prog.MustPredicate("friend")
	smokes := prog.MustPredicate("smokes")
	anna := prog.Constant("person", "Anna")
	bob := prog.Constant("person", "Bob")
	carl := prog.Constant("person", "Carl")
	var d mln.Delta
	d.Upsert(friend, []int32{carl, anna}, mln.True) // closed insert
	d.Remove(friend, []int32{anna, bob})            // closed retract
	d.Upsert(smokes, []int32{bob}, mln.False)       // open set
	d.Remove(smokes, []int32{anna})                 // open retract (back to query)
	return d
}

// regroundOnce applies the delta to ts and runs the incremental re-ground,
// returning the new result and the touched-atom flags.
func regroundOnce(t *testing.T, inc *Incremental, delta mln.Delta) (*Result, []bool, RegroundInfo) {
	t.Helper()
	if _, err := inc.TS.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	res, touched, info, err := inc.Reground(context.Background(), delta.Preds())
	if err != nil {
		t.Fatal(err)
	}
	return res, touched, info
}

func TestRegroundBitIdenticalTiny(t *testing.T) {
	ts := setup(t, tinyProg, tinyEv)
	inc, _, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, _, info := regroundOnce(t, inc, tinyDelta(ts.Prog))
	if info.ClausesRerun == 0 || info.ClausesRerun > info.ClausesTotal {
		t.Fatalf("implausible rerun count: %+v", info)
	}

	// Reference: a fresh parse, the same delta folded into the evidence
	// before tables are even built, and a full bottom-up ground.
	tsRef := setup(t, tinyProg, tinyEv)
	if _, err := tsRef.Ev.Apply(translateDelta(tsRef.Prog, tinyDelta(ts.Prog))); err != nil {
		t.Fatal(err)
	}
	tsRef2 := buildTS(t, tsRef.Prog, tsRef.Ev)
	ref, err := GroundBottomUp(context.Background(), tsRef2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "tiny", ts, res1, tsRef2, ref)
}

func TestRegroundBitIdenticalDatasets(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *datagen.Dataset
		pred string
		n    int
	}{
		{"RC/refers", func() *datagen.Dataset {
			return datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11})
		}, "refers", 8},
		{"RC/cat", func() *datagen.Dataset {
			return datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11})
		}, "cat", 6},
		{"IE/hint", func() *datagen.Dataset {
			return datagen.IE(datagen.IEConfig{Chains: 30, Seed: 13})
		}, "hint", 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.gen()
			delta := datagen.RandomDelta(ds, tc.pred, tc.n, 99)
			if delta.Len() == 0 {
				t.Fatal("empty delta")
			}
			ts := buildTS(t, ds.Prog, ds.Ev)
			inc, _, err := NewIncremental(context.Background(), ts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res1, _, _ := regroundOnce(t, inc, delta)

			// Reference instance regenerated from the same config: identical
			// symbol ids, so the delta transfers numerically.
			dsRef := tc.gen()
			if _, err := dsRef.Ev.Apply(translateDelta(dsRef.Prog, delta)); err != nil {
				t.Fatal(err)
			}
			tsRef := buildTS(t, dsRef.Prog, dsRef.Ev)
			ref, err := GroundBottomUp(context.Background(), tsRef, Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, tc.name, ts, res1, tsRef, ref)
		})
	}
}

func TestRegroundRollbackRestores(t *testing.T) {
	ts := setup(t, tinyProg, tinyEv)
	inc, res0, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	undo, err := ts.ApplyDelta(tinyDelta(ts.Prog))
	if err != nil {
		t.Fatal(err)
	}
	if err := undo.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Re-grounding everything after the rollback must reproduce the original
	// epoch exactly, with an empty raw diff.
	res1, _, info, err := inc.Reground(context.Background(), allPreds(ts.Prog))
	if err != nil {
		t.Fatal(err)
	}
	if info.RawsAdded != 0 || info.RawsRemoved != 0 || info.TouchedAids != 0 {
		t.Fatalf("rollback left a raw diff: %+v", info)
	}
	requireBitIdentical(t, "rollback", ts, res1, ts, res0)
}

func TestRegroundRetryAfterRollbackMatchesFresh(t *testing.T) {
	ts := setup(t, tinyProg, tinyEv)
	inc, _, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	delta := tinyDelta(ts.Prog)
	// First attempt: applied, then rolled back (simulating a failed update).
	undo, err := ts.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := undo.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Retry: apply again and re-ground — must equal the fresh reference.
	res1, _, _ := regroundOnce(t, inc, delta)

	tsRef := setup(t, tinyProg, tinyEv)
	if _, err := tsRef.Ev.Apply(translateDelta(tsRef.Prog, delta)); err != nil {
		t.Fatal(err)
	}
	tsRef2 := buildTS(t, tsRef.Prog, tsRef.Ev)
	ref, err := GroundBottomUp(context.Background(), tsRef2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "retry", ts, res1, tsRef2, ref)
}

func TestApplyDeltaValidationLeavesNoTrace(t *testing.T) {
	ts := setup(t, tinyProg, tinyEv)
	inc, res0, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	friend := ts.Prog.MustPredicate("friend")
	anna := ts.Prog.Constant("person", "Anna")
	var bad mln.Delta
	bad.Upsert(friend, []int32{anna, 9999}, mln.True) // unknown constant id
	if _, err := ts.ApplyDelta(bad); !errors.Is(err, mln.ErrConstantNotInDomain) {
		t.Fatalf("want ErrConstantNotInDomain, got %v", err)
	}
	res1, _, info, err := inc.Reground(context.Background(), bad.Preds())
	if err != nil {
		t.Fatal(err)
	}
	if info.RawsAdded != 0 || info.RawsRemoved != 0 {
		t.Fatalf("rejected delta mutated tables: %+v", info)
	}
	requireBitIdentical(t, "rejected", ts, res1, ts, res0)
}

func TestPatchApplyReconstructs(t *testing.T) {
	ts := setup(t, tinyProg, tinyEv)
	inc, res0, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, _, _ := regroundOnce(t, inc, tinyDelta(ts.Prog))

	oldToNew, newToOld := AtomMaps(res0, res1)
	p := mrf.ComputePatch(res0.MRF, res1.MRF, oldToNew, newToOld)
	got := p.Apply(res0.MRF)
	if got.NumAtoms != res1.MRF.NumAtoms || got.FixedCost != res1.MRF.FixedCost {
		t.Fatalf("patch apply header mismatch: %d/%v vs %d/%v",
			got.NumAtoms, got.FixedCost, res1.MRF.NumAtoms, res1.MRF.FixedCost)
	}
	if !reflect.DeepEqual(got.Clauses, res1.MRF.Clauses) {
		t.Fatalf("patch apply clauses differ:\n%v\nvs\n%v", got.Clauses, res1.MRF.Clauses)
	}
	if !reflect.DeepEqual(got.Atoms, res1.MRF.Atoms) {
		t.Fatal("patch apply atom table differs")
	}
	if p.Identical() {
		t.Fatal("a real delta produced an identical patch")
	}
}

// TestPatchTouchedMatchesFull: the patch restricted to touched atoms is the
// full patch, map for map — also under the active closure, where an update
// admits (first delta) and drops (its inverse) clauses none of whose raws
// changed: the chain program's rule groundings past the first link.
func TestPatchTouchedMatchesFull(t *testing.T) {
	const chainProg = `
*seed(person)
*friend(person, person)
smokes(person)
1 seed(x) => smokes(x)
1.5 smokes(x), friend(x, y) => smokes(y)
`
	// check applies delta and returns the new Result, the (full) patch that
	// leads to it and the delta that undoes it.
	check := func(t *testing.T, inc *Incremental, res0 *Result, delta mln.Delta) (*Result, *mrf.Patch, mln.Delta) {
		t.Helper()
		undo, err := inc.TS.ApplyDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		res1, touched, _, err := inc.Reground(context.Background(), delta.Preds())
		if err != nil {
			t.Fatal(err)
		}
		oldToNew, newToOld := AtomMaps(res0, res1)
		full := mrf.ComputePatch(res0.MRF, res1.MRF, oldToNew, newToOld)
		if got := mrf.ComputePatchTouched(res0.MRF, res1.MRF, oldToNew, newToOld, touched); !reflect.DeepEqual(got, full) {
			t.Fatalf("touched patch +%d -%d ~%d, full patch +%d -%d ~%d", len(got.Added), len(got.RemovedOld),
				len(got.Reweighted), len(full.Added), len(full.RemovedOld), len(full.Reweighted))
		}
		return res1, full, undo.Inverse()
	}
	t.Run("chain", func(t *testing.T) {
		ts := setup(t, chainProg, "friend(A, B)\nfriend(B, C)\nfriend(C, D)\nseed(D)\n")
		inc, res0, err := NewIncremental(context.Background(), ts, Options{UseClosure: true})
		if err != nil {
			t.Fatal(err)
		}
		var on mln.Delta
		on.Upsert(ts.Prog.MustPredicate("seed"), []int32{ts.Prog.Constant("person", "A")}, mln.True)
		res1, p, off := check(t, inc, res0, on)
		if len(p.Added) != 4 || len(p.RemovedOld) != 0 {
			t.Fatalf("seeding A: +%d -%d clauses, want +4 -0", len(p.Added), len(p.RemovedOld))
		}
		if _, p, _ = check(t, inc, res1, off); len(p.Added) != 0 || len(p.RemovedOld) != 4 {
			t.Fatalf("unseeding A: +%d -%d clauses, want +0 -4", len(p.Added), len(p.RemovedOld))
		}
	})
	for _, tc := range smallDatasets() {
		for _, closure := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/closure=%v", tc.ds.Name, closure), func(t *testing.T) {
				ts := buildTS(t, tc.ds.Prog, tc.ds.Ev.Clone())
				inc, res, err := NewIncremental(context.Background(), ts, Options{UseClosure: closure})
				if err != nil {
					t.Fatal(err)
				}
				for round := int64(0); round < 3; round++ {
					var inverse mln.Delta
					res, _, inverse = check(t, inc, res, datagen.RandomDelta(tc.ds, tc.pred, 6, 99+round))
					res, _, _ = check(t, inc, res, inverse)
				}
			})
		}
	}
}

func TestPatchIdenticalOnNoOp(t *testing.T) {
	ts := setup(t, tinyProg, tinyEv)
	inc, res0, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, _, info, err := inc.Reground(context.Background(), allPreds(ts.Prog))
	if err != nil {
		t.Fatal(err)
	}
	if info.RawsAdded != 0 || info.RawsRemoved != 0 {
		t.Fatalf("no-op reground produced a diff: %+v", info)
	}
	oldToNew, newToOld := AtomMaps(res0, res1)
	if p := mrf.ComputePatch(res0.MRF, res1.MRF, oldToNew, newToOld); !p.Identical() {
		t.Fatalf("no-op patch not identical: %+v", p)
	}
}

func TestRepairComponentsMatchesFresh(t *testing.T) {
	ds := datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11})
	delta := datagen.RandomDelta(ds, "refers", 8, 99)
	ts := buildTS(t, ds.Prog, ds.Ev)
	inc, res0, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oldComps := res0.MRF.Components(false)
	res1, touched, _ := regroundOnce(t, inc, delta)
	_, newToOld := AtomMaps(res0, res1)

	got, reused := mrf.RepairComponents(oldComps, res1.MRF, newToOld, touched, false)
	want := res1.MRF.Components(false)
	if len(got) != len(want) {
		t.Fatalf("component count %d != %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].GlobalAtom, want[i].GlobalAtom) {
			t.Fatalf("component %d atom map differs", i)
		}
		if !reflect.DeepEqual(got[i].MRF, want[i].MRF) {
			t.Fatalf("component %d local MRF differs", i)
		}
	}
	if reused == 0 {
		t.Fatal("a small delta on a many-component dataset must reuse components")
	}
	if reused == len(got) {
		t.Fatal("a non-empty delta must rebuild at least one component")
	}
}

func TestPartitionRepairMatchesAlgorithm3(t *testing.T) {
	ds := datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11})
	delta := datagen.RandomDelta(ds, "refers", 8, 99)
	for _, beta := range []int{0, 60} {
		ts := buildTS(t, ds.Prog, ds.Ev)
		inc, res0, err := NewIncremental(context.Background(), ts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		oldPt := partition.Algorithm3(res0.MRF, beta)
		res1, touched, _ := regroundOnce(t, inc, translateDelta(ts.Prog, delta))
		_, newToOld := AtomMaps(res0, res1)

		got, reused := partition.Repair(oldPt, res1.MRF, newToOld, touched, beta)
		want := partition.Algorithm3(res1.MRF, beta)
		if len(got.Parts) != len(want.Parts) {
			t.Fatalf("beta=%d: part count %d != %d", beta, len(got.Parts), len(want.Parts))
		}
		for i := range want.Parts {
			g, w := got.Parts[i], want.Parts[i]
			if g.SizeUnits != w.SizeUnits ||
				!reflect.DeepEqual(g.GlobalAtom, w.GlobalAtom) ||
				!reflect.DeepEqual(g.Local, w.Local) {
				t.Fatalf("beta=%d: part %d differs", beta, i)
			}
		}
		if !reflect.DeepEqual(got.PartOf, want.PartOf) {
			t.Fatalf("beta=%d: PartOf differs", beta)
		}
		if !reflect.DeepEqual(got.Cut, want.Cut) || got.CutWeight != want.CutWeight {
			t.Fatalf("beta=%d: cut differs: %d/%v vs %d/%v",
				beta, len(got.Cut), got.CutWeight, len(want.Cut), want.CutWeight)
		}
		if reused == 0 {
			t.Fatalf("beta=%d: no parts reused", beta)
		}
	}
}
