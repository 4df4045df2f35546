package grounding

import (
	"fmt"
	"math/rand"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/mln"
)

// registryKey is the string key the test's reference map files an atom
// under.
func registryKey(pred *mln.Predicate, args []int32) string {
	return fmt.Sprint(pred.Name, args)
}

// The open-addressed registry answers exactly what a string-keyed map
// answers: random atoms of arity 0 to 4, checked after every batch of
// inserts across several table growths, for registered and absent atoms
// alike; then on a TableSet, through atoms ApplyDelta staged and a
// RestoreTables round trip.
func TestAtomRegistryMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	preds := make([]*mln.Predicate, 5)
	for k := range preds {
		preds[k] = &mln.Predicate{ID: k, Name: fmt.Sprintf("p%d", k), Args: make([]string, k)}
	}
	randomAtom := func() (*mln.Predicate, []int32) {
		p := preds[rng.Intn(len(preds))]
		args := make([]int32, p.Arity())
		for i := range args {
			args[i] = int32(rng.Intn(9))
		}
		return p, args
	}

	var reg registry
	atoms := []mln.GroundAtom{{}}
	want := map[string]int64{}
	growths, size := 0, 0
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 60<<(batch/2); i++ {
			p, args := randomAtom()
			if want[registryKey(p, args)] != 0 {
				continue
			}
			aid := int64(len(atoms))
			atoms = append(atoms, mln.GroundAtom{Pred: p, Args: args})
			reg.insert(atoms, aid)
			want[registryKey(p, args)] = aid
		}
		if len(reg.slots) != size {
			growths, size = growths+1, len(reg.slots)
		}
		for aid := int64(1); aid < int64(len(atoms)); aid++ {
			if got := reg.find(atoms, atoms[aid].Pred, atoms[aid].Args); got != aid {
				t.Fatalf("batch %d: %v found as aid %d, registered as %d", batch, atoms[aid], got, aid)
			}
		}
		for i := 0; i < 500; i++ {
			p, args := randomAtom()
			if got := reg.find(atoms, p, args); got != want[registryKey(p, args)] {
				t.Fatalf("batch %d: %s%v found as aid %d, map says %d", batch, p.Name, args, got, want[registryKey(p, args)])
			}
		}
	}
	if growths < 4 || reg.n != len(atoms)-1 {
		t.Fatalf("%d atoms over %d table sizes; the test needs several growths", reg.n, growths)
	}

	ds := datagen.RC(datagen.RCConfig{Seed: 7})
	ts, err := BuildTables(db.Open(db.Config{}), ds.Prog, ds.Ev.Clone())
	if err != nil {
		t.Fatal(err)
	}
	built := ts.NumAtoms()
	if _, err := ts.ApplyDelta(datagen.RandomDelta(ds, "refers", 40, 99)); err != nil {
		t.Fatal(err)
	}
	if ts.NumAtoms() == built {
		t.Fatal("the delta staged no atom")
	}
	checkTables := func(name string, ts *TableSet) {
		t.Helper()
		ref := make(map[string]int64, ts.NumAtoms())
		for aid := int64(1); aid <= int64(ts.NumAtoms()); aid++ {
			a := ts.Atom(aid)
			ref[registryKey(a.Pred, a.Args)] = aid
			if got, ok := ts.AidOf(a.Pred, a.Args); !ok || got != aid {
				t.Fatalf("%s: %v found as aid %d (%v), registered as %d", name, a, got, ok, aid)
			}
		}
		if len(ref) != ts.NumAtoms() {
			t.Fatalf("%s: %d atoms under %d aids", name, len(ref), ts.NumAtoms())
		}
		for _, p := range ds.Prog.Preds {
			for i := 0; i < 100; i++ {
				args := make([]int32, p.Arity())
				for k, typ := range p.Args {
					dom := ds.Prog.Domain(typ).Sorted()
					args[k] = dom[rng.Intn(len(dom))] + int32(rng.Intn(2)) // sometimes outside the domain
				}
				got, ok := ts.AidOf(p, args)
				if wantAid := ref[registryKey(p, args)]; got != wantAid || ok != (wantAid != 0) {
					t.Fatalf("%s: %s%v found as aid %d (%v), map says %d", name, p.Name, args, got, ok, wantAid)
				}
			}
		}
	}
	checkTables("built", ts)
	exported, err := ts.ExportAtoms()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTables(db.Open(db.Config{}), ds.Prog, ts.Ev, exported)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumAtoms() != ts.NumAtoms() {
		t.Fatalf("restored %d atoms of %d", restored.NumAtoms(), ts.NumAtoms())
	}
	checkTables("restored", restored)
}

// A snapshot registry that names one ground atom twice — here three times,
// one of them with a truth byte no truth code has — is refused, as is one
// whose truth is no truth code, and the refused restore leaves no table
// behind.
func TestRestoreTablesRejectsRepeatedAtom(t *testing.T) {
	prog, err := mln.ParseProgramString(mln.Figure1Program)
	if err != nil {
		t.Fatal(err)
	}
	pi := -1
	for i, p := range prog.Preds {
		if !p.Closed {
			pi = i
			break
		}
	}
	if pi < 0 {
		t.Fatal("Figure 1 has no open predicate")
	}
	args := make([]int32, prog.Preds[pi].Arity())
	for name, atoms := range map[string][]SnapAtom{
		"one atom three times": {
			{Pred: int32(pi), Args: args, Truth: TruthUnknown},
			{Pred: int32(pi), Args: args, Truth: TruthTrue},
			{Pred: int32(pi), Args: args, Truth: 200},
		},
		// A truth a byte would wrap to TruthTrue.
		"truth 257": {{Pred: int32(pi), Args: args, Truth: 256 + TruthTrue}},
	} {
		d := db.Open(db.Config{})
		if _, err := RestoreTables(d, prog, mln.NewEvidence(prog), atoms); err == nil {
			t.Fatalf("a registry with %s restored", name)
		}
		if names := d.TableNames(); len(names) != 0 {
			t.Fatalf("%s: refused restore left tables %v", name, names)
		}
	}
}
