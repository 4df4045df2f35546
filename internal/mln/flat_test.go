package mln_test

import (
	"runtime"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mln"
)

// liveBytes is the heap in use after a collection.
func liveBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFrontEndIsFlat bounds what the front end retains per symbol, per
// domain member and per evidence tuple on IE at 1 500 chains. The bounds sit
// between the flat tables (about 26, 5 and 24 bytes) and the string- and
// int-keyed maps they replaced (about 94, 25 and 60 bytes, the symbols'
// counting the parser lines their names pinned).
func TestFrontEndIsFlat(t *testing.T) {
	ds := datagen.IE(datagen.IEConfig{Chains: 1500, Seed: 1})

	// Symbols: each name arrives inside a line of text, as the parser sees
	// it; the table must keep the name, not the line.
	names := make([]string, ds.Prog.Syms.Len())
	for i := range names {
		names[i] = ds.Prog.Syms.Name(int32(i))
	}
	base := liveBytes()
	lines := make([]string, len(names))
	for i, n := range names {
		lines[i] = "hint(" + n + ", Field1)"
	}
	syms := mln.NewSymbols()
	for i, n := range names {
		syms.Intern(lines[i][5 : 5+len(n)])
	}
	lines = nil
	perSymbol := float64(liveBytes()-base) / float64(len(names))

	// Domains: every member of every typed domain, in the dataset's order.
	base = liveBytes()
	var doms []*mln.Domain
	members := 0
	for name, d := range ds.Prog.Domains {
		nd := mln.NewDomain(name)
		for _, c := range d.Consts {
			nd.Add(c)
		}
		doms = append(doms, nd)
		members += d.Size()
	}
	perMember := float64(liveBytes()-base) / float64(members)

	// Evidence: every tuple, over a program whose domains already hold its
	// constants.
	base = liveBytes()
	ev := mln.NewEvidence(ds.Prog)
	for _, p := range ds.Prog.Preds {
		ds.Ev.ForEach(p, func(args []int32, tr mln.Truth) {
			if err := ev.Assert(p, args, tr == mln.False); err != nil {
				t.Fatal(err)
			}
		})
	}
	perTuple := float64(liveBytes()-base) / float64(ev.Total())
	runtime.KeepAlive(names)
	runtime.KeepAlive(syms)
	runtime.KeepAlive(doms)
	runtime.KeepAlive(ev)
	runtime.KeepAlive(ds)

	t.Logf("%d symbols: %.1f B each; %d domain members: %.1f B each; %d evidence tuples: %.1f B each",
		len(names), perSymbol, members, perMember, ev.Total(), perTuple)
	if perSymbol > 40 {
		t.Errorf("%.1f bytes retained per symbol, want at most 40", perSymbol)
	}
	if perMember > 10 {
		t.Errorf("%.1f bytes retained per domain member, want at most 10", perMember)
	}
	if perTuple > 30 {
		t.Errorf("%.1f bytes retained per evidence tuple, want at most 30", perTuple)
	}
}

// TestSymbolsNameDoesNotAllocate: Name hands back the stored string.
func TestSymbolsNameDoesNotAllocate(t *testing.T) {
	s := mln.NewSymbols()
	for _, n := range []string{"Anna", "Bob", "a much longer constant name than the others"} {
		s.Intern(n)
	}
	var sink string
	if a := testing.AllocsPerRun(100, func() {
		for id := int32(0); id < 3; id++ {
			sink = s.Name(id)
		}
	}); a != 0 {
		t.Fatalf("Name allocates %.1f times per run", a)
	}
	_ = sink
}
