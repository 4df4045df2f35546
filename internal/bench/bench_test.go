package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"tuffy/internal/datagen"
)

// tinyScale keeps every driver under a second for unit testing.
func tinyScale() Scale {
	return Scale{
		RC:          datagen.RCConfig{Papers: 60, Authors: 30, Categories: 3, Clusters: 12, Seed: 1},
		IE:          datagen.IEConfig{Chains: 40, Seed: 2},
		LP:          datagen.LPConfig{Profs: 4, Students: 10, Courses: 6, Seed: 3},
		ER:          datagen.ERConfig{Records: 12, Groups: 4, Seed: 4},
		Flips:       5_000,
		MMFlips:     5,
		DiskLatency: 0,
		Example1N:   20,
	}
}

func checkTable(t *testing.T, tab *Table, wantRows int) {
	t.Helper()
	if tab.Title == "" || len(tab.Header) == 0 {
		t.Fatal("table missing title/header")
	}
	if len(tab.Rows) < wantRows {
		t.Fatalf("table %q has %d rows, want >= %d", tab.Title, len(tab.Rows), wantRows)
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Fatalf("row width %d != header width %d in %q", len(r), len(tab.Header), tab.Title)
		}
	}
	var sb strings.Builder
	tab.Render(&sb)
	if !strings.Contains(sb.String(), tab.Title) {
		t.Fatal("Render dropped the title")
	}
}

func TestAllDriversAtTinyScale(t *testing.T) {
	s := tinyScale()
	drivers := []struct {
		name string
		rows int
		run  func(context.Context, Scale) (*Table, error)
	}{
		{"table1", 6, Table1},
		{"table2", 3, Table2},
		{"table3", 3, Table3},
		{"table4", 4, Table4},
		{"table5", 5, Table5},
		{"table6", 3, Table6},
		{"table7", 3, Table7},
		{"figure3", 8, Figure3},
		{"figure4", 6, Figure4},
		{"figure5", 4, Figure5},
		{"figure6", 9, Figure6},
		{"figure8", 2, Figure8},
		{"theorem31", 5, Theorem31},
		{"erplus", 3, ERPlus},
		{"closure", 4, ClosureAblation},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			tab, err := d.run(context.Background(), s)
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			checkTable(t, tab, d.rows)
		})
	}
}

func TestScalesDiffer(t *testing.T) {
	if DefaultScale().Flips >= FullScale().Flips {
		t.Fatal("full scale should be larger")
	}
	if len(DefaultScale().Datasets()) != 4 {
		t.Fatal("want 4 datasets")
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := fmtBytes(512); got != "512B" {
		t.Fatalf("fmtBytes = %q", got)
	}
	if got := fmtBytes(2 << 10); got != "2.0KB" {
		t.Fatalf("fmtBytes = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.0MB" {
		t.Fatalf("fmtBytes = %q", got)
	}
	if got := fmtDur(1500 * time.Microsecond); got != "1.5ms" {
		t.Fatalf("fmtDur = %q", got)
	}
	if got := fmtRate(2_500_000); got != "2.5M" {
		t.Fatalf("fmtRate = %q", got)
	}
	if got := fmtRate(4200); got != "4.2K" {
		t.Fatalf("fmtRate = %q", got)
	}
	if got := fmtCost(0); got != "0.0" {
		t.Fatalf("fmtCost = %q", got)
	}
}
