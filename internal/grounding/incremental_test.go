package grounding

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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
	if a.MRF.NumClauses() != b.MRF.NumClauses() {
		t.Fatalf("%s: clause count %d != %d", label, a.MRF.NumClauses(), b.MRF.NumClauses())
	}
	for i := range a.MRF.W {
		ca, cb := a.MRF.Clause(i), b.MRF.Clause(i)
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

// changedClauses diffs two epochs' networks: a clause is unchanged when the
// other epoch holds one with the same literal set (atoms translated through
// AtomMaps) and the same weight. It returns the new network's clauses with
// no unchanged counterpart and the old network's.
func changedClauses(old, cur *Result) (added, removed []int) {
	oldToNew, _ := AtomMaps(old, cur)
	key := func(c mrf.Clause, remap []mrf.AtomID) (string, bool) {
		lits := make([]mrf.Lit, len(c.Lits))
		for i, l := range c.Lits {
			a := mrf.Atom(l)
			if remap != nil {
				if a = remap[a]; a == 0 {
					return "", false
				}
			}
			if lits[i] = a; !mrf.Pos(l) {
				lits[i] = -a
			}
		}
		slices.Sort(lits)
		return fmt.Sprint(lits, math.Float64bits(c.Weight)), true
	}
	inNew := make(map[string]bool, cur.MRF.NumClauses())
	for ci := range cur.MRF.W {
		c := cur.MRF.Clause(ci)
		k, _ := key(c, nil)
		inNew[k] = true
	}
	inOld := make(map[string]bool, old.MRF.NumClauses())
	for i := range old.MRF.W {
		c := old.MRF.Clause(i)
		k, ok := key(c, oldToNew)
		if !ok || !inNew[k] {
			removed = append(removed, i)
		}
		if ok {
			inOld[k] = true
		}
	}
	for i := range cur.MRF.W {
		c := cur.MRF.Clause(i)
		if k, _ := key(c, nil); !inOld[k] {
			added = append(added, i)
		}
	}
	return added, removed
}

// requireChangesFlagged asserts the rule partition.Repair reuses every
// untouched part on: each clause that differs between the epochs touches an
// atom flagged in touched (new ids) or one with no counterpart in the other
// epoch. It returns how many clauses were added and removed.
func requireChangesFlagged(t *testing.T, old, cur *Result, touched []bool) (added, removed int) {
	t.Helper()
	oldToNew, newToOld := AtomMaps(old, cur)
	flagged := func(c mrf.Clause, toOther, toNew []mrf.AtomID) bool {
		for _, l := range c.Lits {
			a := mrf.Atom(l)
			if toOther[a] == 0 {
				return true
			}
			if toNew != nil {
				a = toNew[a]
			}
			if touched[a] {
				return true
			}
		}
		return false
	}
	add, rem := changedClauses(old, cur)
	for _, i := range add {
		if c := cur.MRF.Clause(i); !flagged(c, newToOld, nil) {
			t.Fatalf("new clause %d %v differs from the old epoch but touches no flagged atom", i, c)
		}
	}
	for _, i := range rem {
		if c := old.MRF.Clause(i); !flagged(c, oldToNew, oldToNew) {
			t.Fatalf("old clause %d %v differs from the new epoch but touches no flagged atom", i, c)
		}
	}
	return len(add), len(rem)
}

// TestRegroundFlagsEveryChangedClause: every ground clause an update adds,
// removes or reweights touches an atom Reground flags, or one new to (or gone
// from) the network — also under the active closure, where an update admits
// (first delta) and drops (its inverse) clauses none of whose raws changed:
// the chain program's rule groundings past the first link. Each delta's
// inverse lands back on the cold network bit for bit, with the raws still
// retained flat.
func TestRegroundFlagsEveryChangedClause(t *testing.T) {
	const chainProg = `
*seed(person)
*friend(person, person)
smokes(person)
1 seed(x) => smokes(x)
1.5 smokes(x), friend(x, y) => smokes(y)
`
	// check applies delta and returns the new Result, the clause counts the
	// update added and removed, and the delta that undoes it.
	check := func(t *testing.T, inc *Incremental, res0 *Result, delta mln.Delta) (*Result, int, int, mln.Delta) {
		t.Helper()
		undo, err := inc.TS.ApplyDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		res1, touched, _, err := inc.Reground(context.Background(), delta.Preds())
		if err != nil {
			t.Fatal(err)
		}
		added, removed := requireChangesFlagged(t, res0, res1, touched)
		return res1, added, removed, undo.Inverse()
	}
	t.Run("chain", func(t *testing.T) {
		ts := setup(t, chainProg, "friend(A, B)\nfriend(B, C)\nfriend(C, D)\nseed(D)\n")
		inc, res0, err := NewIncremental(context.Background(), ts, Options{UseClosure: true})
		if err != nil {
			t.Fatal(err)
		}
		var on mln.Delta
		on.Upsert(ts.Prog.MustPredicate("seed"), []int32{ts.Prog.Constant("person", "A")}, mln.True)
		res1, added, removed, off := check(t, inc, res0, on)
		if added != 4 || removed != 0 {
			t.Fatalf("seeding A: +%d -%d clauses, want +4 -0", added, removed)
		}
		if _, added, removed, _ = check(t, inc, res1, off); added != 0 || removed != 4 {
			t.Fatalf("unseeding A: +%d -%d clauses, want +0 -4", added, removed)
		}
	})
	for _, tc := range smallDatasets() {
		for _, closure := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/closure=%v", tc.ds.Name, closure), func(t *testing.T) {
				ts := buildTS(t, tc.ds.Prog, tc.ds.Ev.Clone())
				inc, cold, err := NewIncremental(context.Background(), ts, Options{UseClosure: closure})
				if err != nil {
					t.Fatal(err)
				}
				res := cold
				changed := 0
				for round := int64(0); round < 3; round++ {
					var added, removed int
					var inverse mln.Delta
					res, added, removed, inverse = check(t, inc, res, datagen.RandomDelta(tc.ds, tc.pred, 6, 99+round))
					changed += added + removed
					res, _, _, _ = check(t, inc, res, inverse)
				}
				if changed == 0 {
					t.Fatal("no delta changed a ground clause")
				}
				// Effort counters and the registry size (closed inserts stage
				// atoms for good) describe the path taken, not the network.
				res.Stats.JoinRowsVisited, res.Stats.PeakBytes, res.Stats.NumAtoms =
					cold.Stats.JoinRowsVisited, cold.Stats.PeakBytes, cold.Stats.NumAtoms
				requireSameBits(t, "deltas then inverses vs cold", cold, res)
				requireFlat(t, "after the deltas", inc)
			})
		}
	}
}

// A re-ground with no delta re-runs every query and reproduces the network.
func TestRegroundNoOpIsIdentical(t *testing.T) {
	ts := setup(t, tinyProg, tinyEv)
	inc, res0, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, touched, info, err := inc.Reground(context.Background(), allPreds(ts.Prog))
	if err != nil {
		t.Fatal(err)
	}
	if info.RawsAdded != 0 || info.RawsRemoved != 0 || slices.Contains(touched, true) {
		t.Fatalf("no-op reground produced a diff: %+v", info)
	}
	requireBitIdentical(t, "no-op", ts, res1, ts, res0)
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
