// Command bench is the end-to-end benchmark of bcserve. For each workload
// it builds a graph and a request stream from -seed, starts a fresh
// bcserve, uploads the graph, and drives the server over loopback HTTP
// for -seconds, checking every reply against its own Brandes reference.
// It prints the workload's metrics, with units, as one JSON object on the
// last line of standard output, and writes a fuller record (machine
// fingerprint, sample counts, diagnostics) to a results file.
//
// Run it from the repository root through bench/run.sh, which keeps the
// Go build cache and every build output under .bench_build/:
//
//	bash bench/run.sh --workload estimate-ba --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                     # all four workloads
//	bash bench/run.sh --workload plan-grid --trace 1   # per-layer metrics
//	bash bench/run.sh compare A.json... -- B.json...
//
// See bench/README.md for the workloads, the metrics and the baseline.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// starts is the number of fresh servers each run starts; setup_s is the
// median of their set-up times.
const starts = 3

// buildDir holds everything the benchmark builds or writes, relative to
// the repository root.
const buildDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the server sees; every workload
// reports all of them (see README.md for what the primary operation of
// each workload is).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"log_err_mean", "ln"},
	{"rss_peak_mb", "MiB"},
}

// counted are the per-layer metrics taken from reply fields and
// /graphs/{id}/stats deltas of the HTTP run.
var counted = []metricDef{
	{"mcmc.evals_per_read", "count"},
	{"mcmc.memo_hit_ratio", "ratio"},
	{"mcmc.acceptance_rate", "ratio"},
	{"engine.result_hit_ratio", "ratio"},
	{"engine.mu_hit_ratio", "ratio"},
	{"engine.mu_misses", "count"},
	{"durable.compactions", "count"},
	{"rank.rounds", "count"},
	{"rank.pruned_ratio", "ratio"},
	{"rank.topk_overlap", "ratio"},
}

// timed are the per-layer timings of the traced replay (package layers).
var timed = []metricDef{
	{"sssp.traversal_us", "us"},
	{"brandes.dep_scan_us", "us"},
	{"mcmc.target_snapshot_us", "us"},
	{"mcmc.chain_ms", "ms"},
	{"mcmc.mu_ms", "ms"},
	{"engine.result_hit_us", "us"},
	{"graph.parse_ms", "ms"},
	{"graph.prepare_ms", "ms"},
	{"graph.apply_edits_ms", "ms"},
	{"store.route_hit_us", "us"},
	{"store.route_patch_ms", "ms"},
	{"store.upload_ms", "ms"},
	{"durable.wal_append_us", "us"},
	{"rank.run_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// record is the results file of one run: the summary plus what compare
// and a reader need to trust it.
type record struct {
	summary
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Commit      string             `json:"commit"`
	Seconds     int                `json:"seconds"`  // the run length asked for
	WindowS     float64            `json:"window_s"` // the run length measured
	DurationS   float64            `json:"duration_s"`
	Samples     map[string]int     `json:"samples"`
	Extra       map[string]float64 `json:"extra"`
	Failures    []string           `json:"failures,omitempty"`
}

// config is what runWorkload needs beyond the workload itself.
type config struct {
	seed    uint64
	window  time.Duration
	maxReqs int  // caps each request stream (the test's toy runs); 0: none
	toy     bool // toy-sized inputs
	trace   bool
	start   startFunc
	workDir string // working directory for data dirs and tracer input
	refDir  string // cache of reference betweenness; empty: none
	// tracer replays the sampled inputs in-process and returns the timed
	// per-layer metrics; used only when trace is set.
	tracer func(ctx context.Context, in traceInput) (map[string]float64, error)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: estimate-ba, plan-grid, rank-road or mutate-ba (empty: all)")
	seed := fs.Uint64("seed", 1, "seed the request streams are generated from")
	seconds := fs.Int("seconds", 28, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1: replay the run in-process and report per-layer metrics instead of end-to-end ones")
	outDir := fs.String("out-dir", filepath.Join(buildDir, "results"), "directory for the results files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1 and -seconds a positive count")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		todo = []*workload{w}
	}
	ctx := context.Background()
	bin := filepath.Join(buildDir, "bin")
	if err := goBuild(ctx, ".", "./cmd/bcserve", filepath.Join(bin, "bcserve")); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		start:  spawnBcserve(filepath.Join(bin, "bcserve"), filepath.Join(buildDir, "logs")),
		trace:  *trace == 1,
		refDir: filepath.Join(buildDir, "reference"),
	}
	if cfg.trace {
		tracerBin := filepath.Join(bin, "tracer")
		if err := goBuild(ctx, "bench", "./layers/tracer", tracerBin); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		cfg.tracer = execTracer(tracerBin)
	}
	fp := machine()
	commit := gitCommit()
	status := 0
	for _, w := range todo {
		cfg.workDir = filepath.Join(buildDir, "work", w.name)
		for _, d := range []string{cfg.workDir, cfg.refDir, *outDir, filepath.Join(buildDir, "logs")} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
		began := time.Now()
		rec, err := runWorkload(ctx, w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		rec.Fingerprint, rec.Commit = fp, commit
		rec.DurationS = time.Since(began).Seconds()
		report(os.Stderr, rec)
		file := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", w.name, *seed, *trace, time.Now().UnixNano()))
		if err := writeJSON(file, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		line, err := json.Marshal(rec.summary)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println(string(line))
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

// goBuild builds pkg in the module at dir into out.
func goBuild(ctx context.Context, dir, pkg, out string) error {
	abs, err := filepath.Abs(out)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}

// runWorkload runs one workload end to end: starts fresh servers (the
// median is setup_s, the last one serves the run), the measured window,
// the post-window checks and, when tracing, the in-process replay.
func runWorkload(ctx context.Context, w *workload, cfg config) (*record, error) {
	p := w.full
	if cfg.toy {
		p = w.toy
	}
	r := &run{w: w, p: p, seed: cfg.seed, maxReqs: cfg.maxReqs, refDir: cfg.refDir, extra: map[string]float64{}, cal: newCalibrator()}
	w.gen(r)
	body := r.g.edgeList()

	// Each start is bracketed by calibration slices; its set-up time is
	// scaled by the calibration at its midpoint.
	var setups, rawSetups []float64
	var srv *server
	r.cal.slice()
	for attempt := 0; attempt < starts; attempt++ {
		dataDir := filepath.Join(cfg.workDir, "data")
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := cfg.start(ctx, w, dataDir)
		if err != nil {
			return nil, err
		}
		r.url, r.base, r.client = s.url, s.url+"/graphs/"+w.id, newClient(w.conns)
		err = call(ctx, r.client, http.MethodPost, s.url+"/graphs?id="+w.id, body, http.StatusCreated, nil)
		if err == nil {
			err = w.warm(ctx, r)
		}
		d := time.Since(t0)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("start %d: %w", attempt+1, err)
		}
		if attempt < starts-1 {
			r.client.CloseIdleConnections()
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping start %d: %w", attempt+1, err)
			}
		}
		srv = s
		r.cal.slice()
		setups = append(setups, d.Seconds()*r.cal.scale(t0.Add(d/2)))
		rawSetups = append(rawSetups, d.Seconds())
	}

	var before, after statsReply
	if err := call(ctx, r.client, http.MethodGet, r.base+"/stats", nil, http.StatusOK, &before); err != nil {
		srv.stop()
		return nil, err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		srv.stop()
		return nil, err
	}
	r.start = time.Now()
	r.deadline = r.start.Add(cfg.window)
	w.measure(ctx, r)
	cpu1, err := srv.cpu()
	if err != nil {
		srv.stop()
		return nil, err
	}
	r.cal.slice()
	// Requests in flight at the deadline complete and count, so the
	// window ends at the later of the two.
	end := r.last
	if r.maxReqs == 0 && end.Before(r.deadline) {
		end = r.deadline
	}
	window := end.Sub(r.start).Seconds()
	ops := r.ops
	// The closed-loop clients wait while they calibrate, so throughput is
	// taken over the rest of the window.
	cal := r.cal.within(r.start, end)
	busy := window - cal.spent.Seconds()
	if err := call(ctx, r.client, http.MethodGet, r.base+"/stats", nil, http.StatusOK, &after); err != nil {
		srv.stop()
		return nil, err
	}
	if w.finish != nil {
		w.finish(ctx, r)
	}

	var timings map[string]float64
	if cfg.trace {
		var err error
		if timings, err = traceRun(ctx, r, cfg); err != nil {
			srv.stop()
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	rss, rssErr := srv.rss()
	r.client.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		r.fail(fmt.Errorf("server exit: %w", err))
	}
	if rssErr != nil {
		return nil, rssErr
	}

	rec := &record{
		Workload: w.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Seconds:  int(cfg.window / time.Second),
		WindowS:  window,
		Samples: map[string]int{
			"latency":    len(r.lat),
			"throughput": r.closed,
			"rel_err":    len(r.relErr),
		},
		Extra:    r.extra,
		Failures: r.failures,
	}
	scaled := r.scaledLat()
	values := map[string]float64{
		"setup_s":          percentile(setups, 50),
		"latency_p50_ms":   percentile(scaled, 50),
		"latency_p95_ms":   percentile(scaled, 95),
		"throughput_per_s": float64(r.closed) / busy * cal.wallUS / refPassUS,
		"cpu_ms_per_op":    1000 * (cpu1 - cpu0) / float64(ops) * refPassUS / cal.cpuUS,
		"log_err_mean":     meanLogErr(r.relErr),
		"rss_peak_mb":      rss,
	}
	// The timings as the clock read them, for a reader of the results file.
	r.extra["cal_pass_us"] = cal.wallUS
	r.extra["cal_pass_cpu_us"] = cal.cpuUS
	r.extra["raw_setup_s"] = percentile(rawSetups, 50)
	r.extra["raw_latency_p50_ms"] = percentile(r.lat, 50)
	r.extra["raw_latency_p95_ms"] = percentile(r.lat, 95)
	r.extra["raw_throughput_per_s"] = float64(r.closed) / busy
	r.extra["raw_cpu_ms_per_op"] = 1000 * (cpu1 - cpu0) / float64(ops)
	defs := endToEnd
	if cfg.trace {
		defs = append(slices.Clone(counted), timed...)
		values = layerCounts(r, before, after)
		for k, v := range timings {
			values[k] = v
		}
	}
	if len(r.writeLate) > 0 {
		r.extra["writer_late_p95_ms"] = percentile(r.writeLate, 95)
	}
	rec.Correct = r.failed == 0
	rec.Attempted, rec.Failed = r.attempted, r.failed
	rec.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Correct = false
			rec.Failures = append(rec.Failures, fmt.Sprintf("metric %s not measured", d.name))
			v = 0
		}
		rec.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.attempted == 0 {
		rec.Correct, rec.Attempted, rec.Failed = false, 1, 1
	}
	return rec, nil
}

// layerCounts derives the counted per-layer metrics from reply fields and
// the stats delta over the window.
func layerCounts(r *run, before, after statsReply) map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rd, jb := r.reads, r.jobs
	resHits, resMiss := float64(after.ResultHits-before.ResultHits), float64(after.ResultMisses-before.ResultMisses)
	muHits, muMiss := float64(after.MuHits-before.MuHits), float64(after.MuMisses-before.MuMisses)
	return map[string]float64{
		"mcmc.evals_per_read":     ratio(float64(rd.evals), float64(rd.n)),
		"mcmc.memo_hit_ratio":     ratio(float64(rd.hits), float64(rd.evals+rd.hits)),
		"mcmc.acceptance_rate":    ratio(rd.accept, float64(rd.n)),
		"engine.result_hit_ratio": ratio(resHits, resHits+resMiss),
		"engine.mu_hit_ratio":     ratio(muHits, muHits+muMiss),
		"engine.mu_misses":        muMiss,
		"durable.compactions":     r.extra["compactions"],
		"rank.rounds":             ratio(jb.rounds, float64(jb.n)),
		"rank.pruned_ratio":       ratio(jb.pruned, float64(jb.n)),
		"rank.topk_overlap":       ratio(jb.overlap, float64(jb.n)),
	}
}

// report prints a human-readable summary of one run to w.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "== %s seed %d: %d attempted, %d failed, window %.1fs, run %.1fs, samples %v\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.WindowS, rec.DurationS, rec.Samples)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-26s %14.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	for k, v := range rec.Extra {
		fmt.Fprintf(w, "   (%s %.4g)\n", k, v)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "   FAILED:", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// machine fingerprints the host: compare refuses to mix runs whose
// fingerprints differ.
func machine() fingerprint {
	fp := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// gitCommit names the commit under test, or "unknown" outside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
