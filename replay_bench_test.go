package tuffy

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tuffy/internal/datagen"
)

// BenchmarkOpenReplay is a warm open of an RC data dir at rc-serve size whose
// WAL holds one committed delta after its snapshot, as a crash right after
// an update leaves it: restore the atom registry and the raws, fold them,
// replay the delta and checkpoint the replay. Every iteration opens a fresh
// copy of the same snapshot and log; cold-ns/op is one cold Ground of the
// same evidence, the cost a replaying open is set against.
func BenchmarkOpenReplay(b *testing.B) {
	ctx := context.Background()
	ds := rcServe()
	src := b.TempDir()
	eng, err := Open(ds.Prog, ds.Ev.Clone(), EngineConfig{DataDir: src})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Ground(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.UpdateEvidence(ctx, datagen.RandomDelta(ds, "refers", 20, 99)); err != nil {
		b.Fatal(err)
	}
	// The delta is durable in the log; Close would checkpoint it away.
	files := map[string][]byte{}
	for _, name := range []string{snapshotFile, walFile} {
		if files[name], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}

	var cold time.Duration
	for b.Loop() {
		b.StopTimer()
		dir := b.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		ev := ds.Ev.Clone()
		b.StartTimer()
		eng, err := Open(ds.Prog, ev, EngineConfig{DataDir: dir})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if n := eng.DurabilityStats().ReplayedDeltas; n != 1 {
			b.Fatalf("replayed %d deltas, want 1", n)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}

		coldEng, err := Open(ds.Prog, ds.Ev.Clone(), EngineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if err := coldEng.Ground(ctx); err != nil {
			b.Fatal(err)
		}
		cold += time.Since(start)
		b.StartTimer()
	}
	b.ReportMetric(float64(cold)/float64(b.N), "cold-ns/op")
}
