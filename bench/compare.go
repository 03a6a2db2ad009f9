package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json compare reads: each metric's
// direction and regression bound.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 on per-layer metrics: no verdict
}

// row is compare's finding for one (workload, metric).
type row struct {
	workload, metric string
	a, b             [3]float64 // quartiles of each side
	change           float64    // relative change of the median; > 0 is worse
	winShare         float64    // share of seed-paired runs where B is better
	pairs            int
	verdict          string // improved, unchanged, regressed, unresolved, or "-" without a bound
}

// compareMain implements `bench compare [-spec BENCHMARK.json] A.json... -- B.json...`:
// A is the baseline side, B the candidate.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	sep := slices.Index(files, "--")
	if sep < 1 || sep == len(files)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	rows, err := compareFiles(*specPath, files[:sep], files[sep+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	printRows(out, rows)
	for _, r := range rows {
		if r.verdict == "regressed" || r.verdict == "unresolved" {
			return 1
		}
	}
	return 0
}

func compareFiles(specPath string, aPaths, bPaths []string) ([]row, error) {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return nil, err
	}
	var sides [2][]record
	for i, paths := range [][]string{aPaths, bPaths} {
		sides[i] = make([]record, len(paths))
		for j, p := range paths {
			if err := readJSON(p, &sides[i][j]); err != nil {
				return nil, err
			}
		}
	}
	return compare(sp, sides[0], sides[1])
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// sample is one run's value of one metric.
type sample struct {
	seed  uint64
	value float64
}

// compare judges every (workload, metric) both sides report. It refuses
// runs from different machines or of different lengths: a difference in
// either is not a difference in the code.
func compare(sp spec, a, b []record) ([]row, error) {
	for _, r := range append(slices.Clone(a), b...) {
		if r.Fingerprint != a[0].Fingerprint {
			return nil, fmt.Errorf("fingerprints differ: %+v vs %+v (seed %d of %s)", a[0].Fingerprint, r.Fingerprint, r.Seed, r.Workload)
		}
		if r.Seconds != a[0].Seconds {
			return nil, fmt.Errorf("run lengths differ: %d s vs %d s (seed %d of %s)", a[0].Seconds, r.Seconds, r.Seed, r.Workload)
		}
	}
	type key struct{ workload, metric string }
	// side maps each key to every run's value.
	side := func(recs []record) map[key][]sample {
		m := map[key][]sample{}
		for _, r := range recs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], sample{r.Seed, v.Value})
			}
		}
		return m
	}
	as, bs := side(a), side(b)
	var rows []row
	for _, group := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range group {
			var workloads []string
			for k := range as {
				if k.metric == m.Name && bs[k] != nil {
					workloads = append(workloads, k.workload)
				}
			}
			sort.Strings(workloads)
			for _, w := range workloads {
				k := key{w, m.Name}
				rows = append(rows, judge(w, m, as[k], bs[k]))
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the two sides share no (workload, metric)")
	}
	return rows, nil
}

// judge applies the benchmark's rule to one metric. A side whose own
// quartile spread exceeds the bound leaves the comparison unresolved,
// unless every B run beats every A run. A gain needs B to win at least
// nine tenths of the seed-paired runs and the medians to differ by more
// than A's quartile spread; a regression is a median worse by more than
// the bound. Quartiles use every run; a seed run more than once on a side
// is paired by the median of its runs.
func judge(workload string, m specMetric, a, b []sample) row {
	vals := func(s []sample) []float64 {
		var v []float64
		for _, x := range s {
			v = append(v, x.value)
		}
		return v
	}
	bySeed := func(s []sample) map[uint64]float64 {
		runs := map[uint64][]float64{}
		for _, x := range s {
			runs[x.seed] = append(runs[x.seed], x.value)
		}
		med := map[uint64]float64{}
		for seed, v := range runs {
			med[seed] = percentile(v, 50)
		}
		return med
	}
	av, bv := vals(a), vals(b)
	rw := row{workload: workload, metric: m.Name, verdict: "-"}
	rw.a[0], rw.a[1], rw.a[2] = quartiles(av)
	rw.b[0], rw.b[1], rw.b[2] = quartiles(bv)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*x < sign*y } // x better than y
	rw.change = sign * (rw.b[1] - rw.a[1]) / math.Abs(rw.a[1])
	if rw.a[1] == rw.b[1] {
		rw.change = 0
	}
	as, bs := bySeed(a), bySeed(b)
	wins := 0
	for s, x := range as {
		if y, ok := bs[s]; ok {
			rw.pairs++
			if better(y, x) {
				wins++
			}
		}
	}
	if rw.pairs > 0 {
		rw.winShare = float64(wins) / float64(rw.pairs)
	}
	if m.Bound == 0 {
		return rw
	}
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	gain := rw.change < 0 && rw.winShare >= 0.9 && math.Abs(rw.b[1]-rw.a[1]) > rw.a[2]-rw.a[0]
	switch {
	case gain && allBetter:
		rw.verdict = "improved"
	case spread(rw.a) > m.Bound || spread(rw.b) > m.Bound:
		rw.verdict = "unresolved"
	case rw.change > m.Bound:
		rw.verdict = "regressed"
	case gain:
		rw.verdict = "improved"
	default:
		rw.verdict = "unchanged"
	}
	return rw
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-12s %-26s %-32s %-32s %8s %9s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins", "verdict")
	for _, r := range rows {
		q := func(x [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", x[1], x[0], x[2]) }
		fmt.Fprintf(w, "%-12s %-26s %-32s %-32s %+7.1f%% %5.0f%%/%-2d  %s\n",
			r.workload, r.metric, q(r.a), q(r.b), 100*r.change, 100*r.winShare, r.pairs, r.verdict)
	}
}
