package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"facile/internal/runcfg"
)

// The table tests run on 129.compress at scale 1 and check only the
// deterministic columns. Host rates are not asserted: they say nothing
// about correctness.
const smokeName = "129.compress"

// checkFigureRows checks one figure's exact instructions, cycles and
// share fast-forwarded. figureRows itself fails if a memoizing run's
// cycles differ from its non-memoizing twin's.
func checkFigureRows(t *testing.T, engine string, insts, cycles uint64, fastFwd string) []row {
	t.Helper()
	rows, err := figureRows([]string{smokeName}, 1, engine)
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	r := rows[0]
	if ff := fmt.Sprintf("%.3f", r.FastFwdPct); r.Insts != insts || r.Cycles != cycles || ff != fastFwd {
		t.Errorf("%s: insts %d cycles %d fast-forwarded %s%%, want %d %d %s%%",
			engine, r.Insts, r.Cycles, ff, insts, cycles, fastFwd)
	}
	return rows
}

func TestFigure11SmallRun(t *testing.T) {
	rows := checkFigureRows(t, runcfg.EngineFastsim, 46719, 45148, "99.553")
	var buf bytes.Buffer
	writeFigure(&buf, "test", rows)
	writeTable1(&buf, rows)
	if !strings.Contains(buf.String(), smokeName) {
		t.Fatalf("formatting lost rows:\n%s", buf.String())
	}
}

func TestFigure12SmallRun(t *testing.T) {
	checkFigureRows(t, runcfg.EngineFacOOO, 46719, 45447, "99.383")
}

func TestTable2SmallRun(t *testing.T) {
	rows, err := table2Rows([]string{smokeName}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MemoBytes != 50156 {
		t.Errorf("table 2: %d bytes memoized, want 50156", rows[0].MemoBytes)
	}
	var buf bytes.Buffer
	writeTable2(&buf, rows)
	if !strings.Contains(buf.String(), "MB cached") {
		t.Fatalf("bad table format:\n%s", buf.String())
	}
}

func TestCacheCapSweepRuns(t *testing.T) {
	pts, err := capSweep(smokeName, 1, []uint64{0, 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Cycles != pts[1].Cycles || pts[0].Clears != 0 || pts[1].Clears == 0 {
		t.Errorf("cap sweep: a cap must clear and leave cycles alone: %+v", pts)
	}
}

func TestLoCReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "loc", nil, 1, ""); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"svr32.fac", "func.fac", "inorder.fac", "ooo.fac"} {
		if !strings.Contains(buf.String(), f) || locReport()[f] == 0 {
			t.Errorf("no line count for %s:\n%s", f, buf.String())
		}
	}
}

func TestHMean(t *testing.T) {
	if h := hmean([]float64{2, 2, 2}); h != 2 {
		t.Fatalf("hmean = %f", h)
	}
	if h := hmean(nil); h != 0 {
		t.Fatalf("hmean(nil) = %f", h)
	}
	if h := hmean([]float64{1, 0}); h != 0 {
		t.Fatalf("hmean with zero = %f", h)
	}
}
