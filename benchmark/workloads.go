package main

import (
	"embed"
	"fmt"
	"strings"

	"tuffy"
	"tuffy/internal/datagen"
	"tuffy/internal/mln"
)

//go:embed programs/*.mln
var programFS embed.FS

// workload is one named input of the benchmark. The names are fixed: later
// issues cite them.
type workload struct {
	name string
	why  string
	// rules is the committed program text (declarations and rules). It is
	// committed rather than generated because mln.Clause.Format does not
	// round-trip EXIST.
	rules string
	// gen builds the programmatic dataset the text is serialised from.
	gen func(seed int64, smoke bool) *datagen.Dataset
	// budget is EngineConfig.MemoryBudgetBytes (0 keeps whole components).
	budget int64
	// flips is the MAP flip budget of one answer.
	flips int64
	// samples > 0 adds an InferMarginal with that many MC-SAT samples after
	// the MAP query.
	samples int
	serve   bool
	// minGround and minSearch are the shares (in %) of a traced rep that
	// grounding (tables + ground) and the search side (partition + MAP
	// search + MC-SAT) must reach at full size: the balance the workload
	// exists for.
	minGround, minSearch float64
}

var workloads = []workload{
	{
		name:  "ie-ground",
		why:   "6000 tiny components: grounding (db exec/plan + grounding) does >=80% of the work, search almost none",
		rules: "programs/ie.mln",
		gen: func(seed int64, smoke bool) *datagen.Dataset {
			return datagen.IE(datagen.IEConfig{Chains: pick(smoke, 150, 6000), Seed: seed})
		},
		flips:     1_000_000,
		minGround: 80,
	},
	{
		name:  "er-search",
		why:   "one dense component from the cubic transitivity rule: the WalkSAT flip kernel does >=65%, grounding is the single-dominant-clause case",
		rules: "programs/er.mln",
		gen: func(seed int64, smoke bool) *datagen.Dataset {
			return datagen.ER(datagen.ERConfig{Records: pick(smoke, 14, 60), Groups: pick(smoke, 4, 16), Seed: seed})
		},
		flips:     1_000_000,
		minSearch: 65,
	},
	{
		name:  "lp-budget",
		why:   "64 KB memory budget splits one component: partitioning, Gauss-Seidel and partitioned MC-SAT instead of one WalkSAT; grounding ~1%",
		rules: "programs/lp.mln",
		gen: func(seed int64, smoke bool) *datagen.Dataset {
			return datagen.LP(datagen.LPConfig{Profs: pick(smoke, 6, 15), Students: pick(smoke, 24, 90), Courses: pick(smoke, 12, 60), Seed: seed})
		},
		budget:    64 << 10,
		flips:     1_000_000,
		samples:   500,
		minSearch: 90,
	},
	{
		name:  "rc-serve",
		why:   "a real tuffyd over HTTP: closed-loop MAP/marginal mix with cache hits, evidence updates beside reads, then SIGKILL and warm restart",
		rules: "programs/rc.mln",
		gen: func(seed int64, smoke bool) *datagen.Dataset {
			return datagen.RC(datagen.RCConfig{Papers: pick(smoke, 120, 1200), Authors: pick(smoke, 50, 500), Categories: 8, Clusters: pick(smoke, 20, 200), Seed: seed})
		},
		flips:   100_000,
		samples: 10,
		serve:   true,
	},
}

func pick(smoke bool, small, full int) int {
	if smoke {
		return small
	}
	return full
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is what the system under test receives: text only.
type input struct {
	prog, evidence string
	ds             *datagen.Dataset
}

// makeInput generates the dataset for a seed and serialises it to the text
// the system is handed.
func (w workload) makeInput(seed int64, smoke bool) (input, error) {
	rules, err := programFS.ReadFile(w.rules)
	if err != nil {
		return input{}, err
	}
	ds := w.gen(seed, smoke)
	return input{prog: domainText(ds.Prog) + string(rules), evidence: evidenceText(ds), ds: ds}, nil
}

// domainText declares every typed domain explicitly, so constants that
// appear in no evidence tuple (a professor who taught nothing) still ground
// atoms exactly as in the programmatic dataset.
func domainText(prog *mln.Program) string {
	var b strings.Builder
	for _, n := range sortedKeys(prog.Domains) {
		d := prog.Domains[n]
		if d.Size() == 0 {
			continue
		}
		b.WriteString(n)
		b.WriteString(" = {")
		for i, c := range d.Sorted() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(prog.Syms.Name(c))
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func evidenceText(ds *datagen.Dataset) string {
	var b strings.Builder
	for _, p := range ds.Prog.Preds {
		ds.Ev.ForEach(p, func(args []int32, t mln.Truth) {
			if t == mln.False {
				b.WriteByte('!')
			}
			b.WriteString(mln.GroundAtom{Pred: p, Args: args}.Format(ds.Prog.Syms))
			b.WriteByte('\n')
		})
	}
	return b.String()
}

// openText is the cold path every batch rep and reference engine takes:
// parse both texts and open an engine over them.
func (w workload) openText(in input, cfg tuffy.EngineConfig) (*tuffy.Engine, error) {
	prog, err := tuffy.LoadProgramString(in.prog)
	if err != nil {
		return nil, fmt.Errorf("%s: program text: %w", w.name, err)
	}
	ev, err := tuffy.LoadEvidenceString(prog, in.evidence)
	if err != nil {
		return nil, fmt.Errorf("%s: evidence text: %w", w.name, err)
	}
	cfg.MemoryBudgetBytes = w.budget
	return tuffy.Open(prog, ev, cfg)
}
