package mln

import (
	"strings"
	"testing"
)

// FuzzParseProgram: program and evidence text are what a user hands the
// engine, so no input may panic the parsers. Each parse either returns a
// result or fails with an error, never both and never neither; a program
// that parses formats every clause, and evidence and query text parse
// against it under the same contract.
func FuzzParseProgram(f *testing.F) {
	f.Add(Figure1Program, Figure1Evidence)
	f.Add("category = {DB, AI, Networking}\ncat(paper, category)\n", "cat(P1, DB)\n!cat(P2, AI)")
	f.Add("p(t)\nq(t)\n1.5 !p(x) v q(x)\n", "p(A)\n!q(A)")
	f.Add("p(t)\nq(t)\np(x) => q(x).\n", "p(A)")
	f.Add("p(t)\nq(t)\np(x) => q(x)\n", "")
	f.Add("p(t)\ninf p(x)\n-inf p(x)\n", "p(A)")
	f.Add("p(t)\n-2.25 p(x)\n1e-3 p(x)\n", "p(1)")
	f.Add("cat(paper, category)\n-1 cat(p, \"Networking Systems\")\n", "cat(P1, \"Networking Systems\")")
	f.Add("p(t)\n2 p(x), p(y) => x != y\n", "p(A)\np(B)")
	f.Add("// leading comment\n\np(t)   // trailing comment\n1 p(x) // rule comment\n", "// none\np(A) // one")
	f.Add("p(t)\nq(t)\n1 p(x), q(x)\n", "q(A)")
	for _, src := range []string{
		"p(t)\n1 q(x)",
		"p(t)\np(t)",
		"p(t)\n1 p(x, y)",
		"p(t)\n1 p(x",
		"p(t)\n1 p(\"x",
		"p(t)\nbogus q(x)",
		"p(t)\n1 p(x) v",
		"p(t)\n1 p(x) extra(y)",
		"p(t)\n1 p(x) => EXIST q",
	} {
		f.Add(src, "p(A)")
	}
	for _, ev := range []string{"r(A)", "p(A, B)", "p(", "!q(A)"} {
		f.Add("p(t)\nq(t, t)", ev)
	}
	f.Fuzz(func(t *testing.T, progSrc, evSrc string) {
		prog, err := ParseProgramString(progSrc)
		if (prog == nil) == (err == nil) {
			t.Fatalf("program parse returned %v with error %v", prog != nil, err)
		}
		if err != nil {
			return
		}
		for _, c := range prog.Clauses {
			_ = c.Format(prog.Syms)
		}
		ev, err := ParseEvidenceString(prog, evSrc)
		if (ev == nil) == (err == nil) {
			t.Fatalf("evidence parse returned %v with error %v", ev != nil, err)
		}
		q, err := ParseQuery(prog, strings.NewReader(evSrc))
		if err != nil && q != nil {
			t.Fatalf("query parse returned a result with error %v", err)
		}
	})
}
