package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcmh/bench/layers"
	internalbrandes "bcmh/internal/brandes"
	"bcmh/internal/durable"
	internalgraph "bcmh/internal/graph"
	"bcmh/internal/store"
)

// inProcess serves the real store and routes behind httptest, wrapped
// by wrap (nil: unwrapped), so toy runs need no bcserve binary.
func inProcess(wrap func(http.Handler) http.Handler) startFunc {
	return func(ctx context.Context, w *workload, dataDir string) (*server, error) {
		var cfg store.Config
		if w.durable {
			mgr, err := durable.NewManager(durable.Options{Dir: dataDir, Fsync: durable.FsyncInterval, CompactBytes: walCompactBytes})
			if err != nil {
				return nil, err
			}
			cfg.Durable = mgr
		}
		st, err := store.Open(cfg)
		if err != nil {
			return nil, err
		}
		h := store.NewServerWithOptions(st, store.ServerOptions{})
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		return &server{
			url:  ts.URL,
			rss:  func() (float64, error) { return peakRSS("/proc/self/status") },
			cpu:  func() (float64, error) { return cpuSeconds("/proc/self/stat") },
			stop: func() error { ts.Close(); st.Close(); return nil },
		}, nil
	}
}

// inProcessTracer runs the traced replay in the test process, passing
// the input through JSON exactly as the tracer binary receives it.
func inProcessTracer(ctx context.Context, in traceInput) (map[string]float64, error) {
	data, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	var li layers.Input
	if err := json.Unmarshal(data, &li); err != nil {
		return nil, err
	}
	return layers.Trace(ctx, li, io.Discard)
}

func toyConfig(t *testing.T, start startFunc, trace bool) config {
	return config{
		seed: 1, window: 10 * time.Second, maxReqs: 20, toy: true, trace: trace,
		start: start, workDir: t.TempDir(), tracer: inProcessTracer,
	}
}

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestToyRunsReportEveryMetric runs every workload at toy scale on an
// in-process server, untraced and then traced, and requires a correct run
// that prints every metric BENCHMARK.json names, with its unit. The
// traced run checks the replies against the reference the untraced one
// cached.
func TestToyRunsReportEveryMetric(t *testing.T) {
	sp := readSpec(t)
	refDir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := toyConfig(t, inProcess(nil), trace)
			cfg.refDir = refDir
			rec, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			line, err := json.Marshal(rec.summary)
			if err != nil {
				t.Fatal(err)
			}
			var printed summary
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.name, trace, len(printed.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := printed.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %q", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// corrupting wraps a handler and rewrites the body of every reply whose
// path contains part, after the first skip such replies, with edit.
func corrupting(part string, skip int64, edit func([]byte) []byte) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		var seen atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.Contains(r.URL.Path, part) || seen.Add(1) <= skip {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			w.WriteHeader(rec.Code)
			w.Write(edit(rec.Body.Bytes()))
		})
	}
}

// TestWrongRepliesCountAsFailed serves a NaN estimate and a wrong exact
// value after warm-up and requires both to be counted as failures.
func TestWrongRepliesCountAsFailed(t *testing.T) {
	value := regexp.MustCompile(`"value":[^,]*`)
	bc := regexp.MustCompile(`"bc":([0-9.e-]+)`)
	cases := []struct {
		workload string
		wrap     func(http.Handler) http.Handler
	}{
		{"estimate-ba", corrupting("/estimate", warmups, func(b []byte) []byte { return value.ReplaceAll(b, []byte(`"value":NaN`)) })},
		{"plan-grid", corrupting("/exact/", 0, func(b []byte) []byte { return bc.ReplaceAll(b, []byte(`"bc":1${1}`)) })},
	}
	for _, c := range cases {
		w, err := workloadByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := runWorkload(context.Background(), w, toyConfig(t, inProcess(c.wrap), false))
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if rec.Correct || rec.Failed == 0 {
			t.Errorf("%s: corrupted replies passed: correct=%v failed=%d of %d", c.workload, rec.Correct, rec.Failed, rec.Attempted)
		}
	}
}

// recording wraps a handler and appends the method, path and body of
// every request but a GET to *sent. GETs are left out: how often a job
// is polled depends on timing.
func recording(mu *sync.Mutex, sent *[]string) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				mu.Lock()
				*sent = append(*sent, r.Method+" "+r.URL.Path+" "+string(body))
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestRequestStreamDependsOnSeedAlone runs every workload that uses two
// connections twice on one seed and requires the server to receive the
// same requests both times, whichever connection sent which and in
// whatever order they completed.
func TestRequestStreamDependsOnSeedAlone(t *testing.T) {
	for _, w := range workloads {
		if w.conns == 1 {
			continue // one connection sends its requests in index order
		}
		var sent [2][]string
		for i := range sent {
			var mu sync.Mutex
			if _, err := runWorkload(context.Background(), w, toyConfig(t, inProcess(recording(&mu, &sent[i])), false)); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			slices.Sort(sent[i])
		}
		if !slices.Equal(sent[0], sent[1]) {
			t.Errorf("%s: two runs on seed 1 sent different requests (%d and %d)", w.name, len(sent[0]), len(sent[1]))
		}
	}
}

// TestStratify requires a permutation of the pool, less the remainder of
// a block of four, whose first quarter takes one vertex of every block.
func TestStratify(t *testing.T) {
	pool := newRand(1, 1).Perm(103)
	bc := make([]float64, len(pool))
	for v := range bc {
		bc[v] = float64(v)
	}
	got := stratify(pool, bc, newRand(2, 1))
	if len(got) != 100 || len(slices.Compact(slices.Sorted(slices.Values(got)))) != 100 {
		t.Fatalf("stratify gave %d vertices, %d distinct; want 100", len(got), len(slices.Compact(slices.Sorted(slices.Values(got)))))
	}
	blocks := map[int]bool{}
	for _, v := range got[:25] {
		blocks[v/4] = true // bc[v] = v: the blocks are 0-3, 4-7, …
	}
	if len(blocks) != 25 {
		t.Errorf("the first 25 targets fall in %d of the 25 blocks", len(blocks))
	}
}

// TestCompareFlagsRegression holds compare to its rule on synthetic
// runs: a median worse by more than the bound regresses, equal runs are
// unchanged, a wide spread is unresolved, a clear gain is improved, and
// runs from another machine are refused.
func TestCompareFlagsRegression(t *testing.T) {
	sp := readSpec(t)
	var bound float64
	for _, m := range sp.EndToEnd {
		if m.Name == "latency_p50_ms" {
			bound = m.Bound
		}
	}
	runs := func(scale, spread float64) []record {
		var recs []record
		for s := uint64(1); s <= 5; s++ {
			v := scale * (1 + spread*float64(s%3))
			recs = append(recs, record{
				summary:     summary{Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}},
				Workload:    "estimate-ba",
				Seed:        s,
				Fingerprint: fingerprint{CPU: "test", NProc: 2, GOMAXPROCS: 2, Go: "go"},
			})
		}
		return recs
	}
	for _, c := range []struct {
		b    []record
		want string
	}{
		{runs(10*(1+bound+0.05), 0.01), "regressed"},
		{runs(10*(1+bound-0.05), 0.01), "unchanged"},
		{runs(10, 0.01), "unchanged"},
		{runs(10, 0.5), "unresolved"},
		{runs(5, 0.01), "improved"},
	} {
		rows, err := compare(sp, runs(10, 0.01), c.b)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].verdict != c.want {
			var buf bytes.Buffer
			printRows(&buf, rows)
			t.Errorf("want %s:\n%s", c.want, buf.String())
		}
	}
	other := runs(10, 0.01)
	other[0].Fingerprint.CPU = "elsewhere"
	if _, err := compare(sp, runs(10, 0.01), other); err == nil {
		t.Error("compare accepted runs from another machine")
	}
	longer := runs(10, 0.01)
	longer[0].Seconds = 30
	if _, err := compare(sp, runs(10, 0.01), longer); err == nil {
		t.Error("compare accepted runs of another length")
	}
	// Two sets on the same seeds both count: the median lies between them.
	rows, err := compare(sp, append(runs(10, 0), runs(11, 0)...), runs(10.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].a[1]; got != 10.5 || rows[0].pairs != 5 {
		t.Errorf("two sets of seeds 1-5: median %v over %d pairs, want 10.5 over 5", got, rows[0].pairs)
	}
}

// TestCalibrationScale requires timings to be scaled by the reference
// kernel's speed at their own time: interpolated between the slices
// around it, and held at the first or last slice outside their range.
func TestCalibrationScale(t *testing.T) {
	c := &calibrator{}
	t0 := time.Now()
	if got := c.scale(t0); got != 1 {
		t.Errorf("scale with no slices = %v, want 1", got)
	}
	c.at = []time.Time{t0, t0.Add(time.Second)}
	c.us = []float64{refPassUS, 2 * refPassUS}
	c.cpuUS = []float64{refPassUS, 1.2 * refPassUS}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{-time.Second, 1},
		{0, 1},
		{500 * time.Millisecond, 1 / 1.5},
		{time.Second, 0.5},
		{2 * time.Second, 0.5},
	} {
		if got := c.scale(t0.Add(tc.at)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scale at %v = %v, want %v", tc.at, got, tc.want)
		}
	}
	want := calWindow{wallUS: 1.5 * refPassUS, cpuUS: 1.1 * refPassUS, spent: time.Duration(3*refPassUS*calPasses) * time.Microsecond}
	if got := c.within(t0, t0.Add(time.Second)); got != want {
		t.Errorf("within = %+v, want %+v", got, want)
	}
}

// TestCalibrationSlice requires a slice to read both clocks, and the
// CPU clock to advance no faster than the wall clock on one thread.
func TestCalibrationSlice(t *testing.T) {
	c := newCalibrator()
	c.slice()
	if len(c.us) != 1 || len(c.cpuUS) != 1 {
		t.Fatalf("slice recorded %d wall and %d CPU times, want 1 each", len(c.us), len(c.cpuUS))
	}
	if c.cpuUS[0] <= 0 || c.cpuUS[0] > 1.05*c.us[0] {
		t.Errorf("slice: %v CPU µs per pass against %v wall-clock µs", c.cpuUS[0], c.us[0])
	}
}

// TestReferenceMatchesBrandes holds the benchmark's own Brandes, which
// every /exact reply is checked against, to the program's reference on
// each workload's toy graph.
func TestReferenceMatchesBrandes(t *testing.T) {
	for _, w := range workloads {
		r := &run{w: w, p: w.toy, seed: 3}
		w.gen(r)
		g, labelOf, err := internalgraph.ReadEdgeList(bytes.NewReader(r.g.edgeList()))
		if err != nil {
			t.Fatal(err)
		}
		want := internalbrandes.BCParallel(g, 0)
		got := brandes(r.g)
		for v := range want {
			label := labelOf[v]
			if d := got[label] - want[v]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("%s: BC(%d) = %v, reference %v", w.name, label, got[label], want[v])
			}
		}
	}
}
