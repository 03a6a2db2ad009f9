// Package layers is the benchmark's traced replay. It takes a sample of
// one workload run — the uploaded edge list and every 8th request of
// the window's first quarter — and replays it in-process, timing calls
// into each layer's public functions with that request's inputs, from
// the HTTP routes down to one traversal:
//
//	store   the session's HTTP routes (store.NewServerWithOptions)
//	engine  result and μ caches (engine.Engine)
//	mcmc    one chain (core.EstimateBCPreparedContext), μ derivation
//	brandes one identity-oracle scan δ_s•(r)
//	sssp    one traversal (hybrid or classic BFS, Dijkstra)
//	graph   parsing, preparation and edits; durable the WAL; rank a job body
//
// Each timed call is a span; the spans of one request share its index and
// name the layer above them as parent. Spans cover calls made from here,
// not code inside the program, so a layer and the layer below it are
// separate calls: the attribution table sets their medians side by side,
// but their difference is not reported as the layer's self time.
package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"bcmh/internal/brandes"
	"bcmh/internal/core"
	"bcmh/internal/durable"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rank"
	"bcmh/internal/sssp"
	"bcmh/internal/store"
)

// Input is one run's sample, as the benchmark writes it.
type Input struct {
	Workload string            `json:"workload"`
	EdgeList string            `json:"edge_list"`
	Requests []EstimateRequest `json:"requests"`
	Rank     RankRequest       `json:"rank"`
	Chords   [][2]int          `json:"chords"` // vertex pairs that are not edges
	SpanFile string            `json:"span_file"`
	WALDir   string            `json:"wal_dir"`
	// Figures of the HTTP run: the client-side latency of a result-cache
	// hit, and the median of the workload's primary operation.
	ClientHitUS  float64 `json:"client_hit_us"`
	PrimaryP50MS float64 `json:"primary_p50_ms"`
}

// EstimateRequest is the body of POST /graphs/{id}/estimate.
type EstimateRequest struct {
	Vertex   int     `json:"vertex"`
	Steps    int     `json:"steps,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	MaxSteps int     `json:"max_steps,omitempty"`
	Seed     uint64  `json:"seed"`
}

// RankRequest is the body of POST /graphs/{id}/rank.
type RankRequest struct {
	K             int    `json:"k"`
	Seed          uint64 `json:"seed"`
	TotalBudget   int    `json:"total_budget"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
}

// Span is one timed call.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []Span
}

// span times f as a span named name and returns the span's id.
func (t *tracer) span(name string, parent, request int, f func() error) (int, error) {
	start := time.Since(t.t0)
	err := f()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name,
		StartNS: int64(start), EndNS: int64(time.Since(t.t0))})
	return len(t.spans), err
}

// quartiles returns the first quartile, the median and the third quartile
// of the durations of the spans named name, in unit, by linear
// interpolation between closest ranks.
func (t *tracer) quartiles(name string, unit time.Duration) [3]float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.EndNS-s.StartNS)/float64(unit))
		}
	}
	var q [3]float64
	if len(ds) == 0 {
		return q
	}
	slices.Sort(ds)
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(ds)-1)
		j := int(pos)
		q[i] = ds[j]
		if j+1 < len(ds) {
			q[i] += (pos - float64(j)) * (ds[j+1] - ds[j])
		}
	}
	return q
}

// median returns the median duration of the spans named name, in unit.
func (t *tracer) median(name string, unit time.Duration) float64 {
	return t.quartiles(name, unit)[1]
}

// sessionID is the replay's session on its in-process store.
const sessionID = "t"

// Trace replays in, writes its spans to in.SpanFile and the attribution
// table to table, and returns the per-layer timings by metric name.
func Trace(ctx context.Context, in Input, table io.Writer) (map[string]float64, error) {
	t := &tracer{t0: time.Now()}
	var raw *graph.Graph
	var idOf []int64
	var eng *engine.Engine
	for i := 0; i < 3; i++ {
		if _, err := t.span("graph.parse", 0, 0, func() (err error) {
			raw, idOf, err = graph.ReadEdgeList(strings.NewReader(in.EdgeList))
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := t.span("graph.prepare", 0, 0, func() (err error) {
			eng, err = engine.New(raw)
			return err
		}); err != nil {
			return nil, err
		}
	}
	g := eng.Graph()
	vertexOf := map[int]int{}
	for v := 0; v < g.N(); v++ {
		orig := v
		if m := eng.Mapping(); m != nil {
			orig = m[v]
		}
		vertexOf[int(idOf[orig])] = v
	}

	h := store.NewServerWithOptions(store.New(store.Config{}), store.ServerOptions{})
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("upload%d", i)
		if _, err := t.span("store.upload", 0, 0, func() error {
			return serve(h, http.MethodPost, "/graphs?id="+id, []byte(in.EdgeList), http.StatusCreated)
		}); err != nil {
			return nil, err
		}
		if err := serve(h, http.MethodDelete, "/graphs/"+id, nil, http.StatusNoContent); err != nil {
			return nil, err
		}
	}
	if err := serve(h, http.MethodPost, "/graphs?id="+sessionID, []byte(in.EdgeList), http.StatusCreated); err != nil {
		return nil, err
	}

	k := newKernel(g)
	pool := mcmc.NewBufferPool(g)
	rnd := rand.New(rand.NewPCG(1, 2))
	var evals []float64
	for q, req := range in.Requests {
		q++ // request 0 is the set-up
		r, ok := vertexOf[req.Vertex]
		if !ok {
			return nil, fmt.Errorf("request for unknown vertex %d", req.Vertex)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		path := "/graphs/" + sessionID + "/estimate"
		route, err := t.span("store.route_miss", 0, q, func() error { return serve(h, http.MethodPost, path, body, http.StatusOK) })
		if err != nil {
			return nil, err
		}
		hit, err := t.span("store.route_hit", 0, q, func() error { return serve(h, http.MethodPost, path, body, http.StatusOK) })
		if err != nil {
			return nil, err
		}

		opts := core.Options{Steps: req.Steps, Epsilon: req.Epsilon, Delta: req.Delta, MaxSteps: req.MaxSteps, Seed: req.Seed}
		var mu float64
		if req.Steps == 0 {
			ms, err := eng.MuStatsContext(ctx, r) // warm, so the engine span below is μ-cached
			if err != nil {
				return nil, err
			}
			mu = ms.Mu
		}
		engineSpan := func() (int, error) {
			return t.span("engine.estimate", route, q, func() error { _, err := eng.EstimateContext(ctx, r, opts); return err })
		}
		chainSpan := func() (int, error) {
			return t.span("mcmc.chain", 0, q, func() error {
				res, err := core.EstimateBCPreparedContext(ctx, g, r, opts, mu, pool)
				evals = append(evals, float64(res.Diagnostics.Evals))
				return err
			})
		}
		// The engine call and the bare chain alternate in order: whichever
		// ran first in a pair measured several ms slower, so a fixed order
		// would show up as engine self time.
		var est, chain int
		if q%2 == 0 {
			if est, err = engineSpan(); err == nil {
				chain, err = chainSpan()
			}
		} else if chain, err = chainSpan(); err == nil {
			est, err = engineSpan()
		}
		if err != nil {
			return nil, err
		}
		t.spans[chain-1].Parent = est
		if _, err := t.span("engine.result_hit", hit, q, func() error { _, err := eng.EstimateContext(ctx, r, opts); return err }); err != nil {
			return nil, err
		}
		if q <= 2 {
			// O(nm): two targets suffice for a median that moves with μ. A
			// fresh pool holds no snapshot of r, as on a first touch.
			fresh := mcmc.NewBufferPool(g)
			if _, err := t.span("mcmc.mu", est, q, func() error {
				_, err := mcmc.MuExactPooledContext(ctx, g, r, fresh)
				return err
			}); err != nil {
				return nil, err
			}
		}
		t.span("mcmc.target_snapshot", chain, q, func() error { k.snapshot(r); return nil })
		for i := 0; i < 8; i++ {
			s := rnd.IntN(g.N())
			t.span("sssp.traversal", chain, q, func() error { k.run(s); return nil })
			t.span("brandes.dep_scan", chain, q, func() error { k.scan(s); return nil })
		}
	}

	for i, c := range in.Chords {
		u, v := vertexOf[c[0]], vertexOf[c[1]]
		if _, err := t.span("graph.apply_edits", 0, 0, func() error {
			_, _, err := graph.ApplyEdits(g, []graph.Edit{{Op: graph.EditAdd, U: u, V: v}})
			return err
		}); err != nil {
			return nil, err
		}
		body := fmt.Appendf(nil, `{"edits":[{"op":"add","u":%d,"v":%d}]}`, c[0], c[1])
		if _, err := t.span("store.route_patch", 0, 0, func() error {
			return serve(h, http.MethodPatch, "/graphs/"+sessionID+"/edges", body, http.StatusOK)
		}); err != nil {
			return nil, fmt.Errorf("PATCH %d: %w", i, err)
		}
	}
	if err := walAppends(t, g, in); err != nil {
		return nil, err
	}
	opts := rank.Options{K: in.Rank.K, Seed: in.Rank.Seed, TotalBudget: in.Rank.TotalBudget, MaxCandidates: in.Rank.MaxCandidates}
	for i := 0; i < 2; i++ {
		if _, err := t.span("rank.run", 0, 0, func() error {
			_, err := rank.Run(ctx, g, eng.Pool(), opts, nil)
			return err
		}); err != nil {
			return nil, err
		}
	}

	meanEvals := 0.0
	for _, e := range evals {
		meanEvals += e / float64(len(evals))
	}
	m := metrics(t)
	if err := writeSpans(in.SpanFile, t.spans); err != nil {
		return nil, err
	}
	attribution(table, t, g.N(), meanEvals, in)
	return m, nil
}

// kernel is the traversal and identity scan the chains of g run on: the
// BFS kernel (which picks hybrid or classic itself) on unweighted graphs,
// Dijkstra on weighted ones.
type kernel struct {
	run      func(s int)
	snapshot func(r int)
	scan     func(s int) float64
}

func newKernel(g *graph.Graph) *kernel {
	if g.Weighted() {
		d := sssp.NewDijkstra(g)
		var ts *sssp.WeightedTargetSPD
		return &kernel{
			run:      d.Run,
			snapshot: func(r int) { ts = sssp.NewWeightedTargetSPD(d, r) },
			scan:     func(s int) float64 { return brandes.DependencyOnTargetIdentityWeighted(d, ts, s) },
		}
	}
	b := sssp.NewBFS(g)
	var ts *sssp.TargetSPD
	return &kernel{
		run:      b.Run,
		snapshot: func(r int) { ts = sssp.NewTargetSPD(b, r) },
		scan:     func(s int) float64 { return brandes.DependencyOnTargetIdentity(b, ts, s) },
	}
}

// serve sends one request through h in-process and checks its status.
func serve(h http.Handler, method, target string, body []byte, want int) error {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		return fmt.Errorf("%s %s: status %d: %s", method, target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// walAppends times 64 one-edit appends to a fresh WAL with the interval
// fsync policy the benchmark's durable workload serves with.
func walAppends(t *tracer, g *graph.Graph, in Input) error {
	mgr, err := durable.NewManager(durable.Options{Dir: in.WALDir, Fsync: durable.FsyncInterval})
	if err != nil {
		return err
	}
	wal, err := mgr.Create("w", g, nil)
	if err != nil {
		return err
	}
	edits := []graph.Edit{{Op: graph.EditAdd, U: 0, V: 1}}
	for i := uint64(0); i < 64; i++ {
		if _, err := t.span("durable.wal_append", 0, 0, func() error { return wal.Append(i, i+1, edits) }); err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	return os.RemoveAll(in.WALDir)
}

// metrics turns span medians into the per-layer metrics. Differences
// between layers are not metrics: the spans are separate calls, so a
// difference of their medians is no self time (see attribution).
func metrics(t *tracer) map[string]float64 {
	return map[string]float64{
		"sssp.traversal_us":       t.median("sssp.traversal", time.Microsecond),
		"brandes.dep_scan_us":     t.median("brandes.dep_scan", time.Microsecond),
		"mcmc.target_snapshot_us": t.median("mcmc.target_snapshot", time.Microsecond),
		"mcmc.chain_ms":           t.median("mcmc.chain", time.Millisecond),
		"mcmc.mu_ms":              t.median("mcmc.mu", time.Millisecond),
		"engine.result_hit_us":    t.median("engine.result_hit", time.Microsecond),
		"graph.parse_ms":          t.median("graph.parse", time.Millisecond),
		"graph.prepare_ms":        t.median("graph.prepare", time.Millisecond),
		"graph.apply_edits_ms":    t.median("graph.apply_edits", time.Millisecond),
		"store.route_hit_us":      t.median("store.route_hit", time.Microsecond),
		"store.route_patch_ms":    t.median("store.route_patch", time.Millisecond),
		"store.upload_ms":         t.median("store.upload", time.Millisecond),
		"durable.wal_append_us":   t.median("durable.wal_append", time.Microsecond),
		"rank.run_ms":             t.median("rank.run", time.Millisecond),
	}
}

// attribution prints, for each layer, its median span and quartiles, the
// part the layer below accounts for, and the residual. The spans of one
// row are separate calls on separate caches, so a residual inside the
// span's quartile range is noise, not a self time.
func attribution(w io.Writer, t *tracer, n int, evals float64, in Input) {
	fmt.Fprintf(w, "-- %s: layer attribution (span median [q1, q3]; residual = median - explained)\n", in.Workload)
	fmt.Fprintf(w, "   %-30s %-30s   %-38s %10s\n", "span", "measured", "explained by", "residual")
	row := func(span string, q [3]float64, by string, explained float64, unit string) {
		measured := fmt.Sprintf("%.3f [%.3f, %.3f] %s", q[1], q[0], q[2], unit)
		fmt.Fprintf(w, "   %-30s %-30s   %-38s %10.3f %s\n", span, measured, by, q[1]-explained, unit)
	}
	ms, us := time.Millisecond, time.Microsecond
	trav, scan := t.median("sssp.traversal", us), t.median("brandes.dep_scan", us)
	one := func(v float64) [3]float64 { return [3]float64{v, v, v} }
	row("client result hit (HTTP run)", one(in.ClientHitUS), "store.route_hit", t.median("store.route_hit", us), "us")
	row("store.route_hit", t.quartiles("store.route_hit", us), "engine.result_hit", t.median("engine.result_hit", us), "us")
	row("store.route_miss", t.quartiles("store.route_miss", ms), "engine.estimate", t.median("engine.estimate", ms), "ms")
	row("engine.estimate", t.quartiles("engine.estimate", ms), "mcmc.chain", t.median("mcmc.chain", ms), "ms")
	row("mcmc.chain", t.quartiles("mcmc.chain", ms), fmt.Sprintf("%.0f evals x (traversal + scan)", evals), evals*(trav+scan)/1000, "ms")
	row("mcmc.mu", t.quartiles("mcmc.mu", ms), "n x (traversal + scan) / GOMAXPROCS", float64(n)*(trav+scan)/1000/float64(runtime.GOMAXPROCS(0)), "ms")
	switch in.Workload {
	case "rank-road":
		row("job p50 (HTTP run)", one(in.PrimaryP50MS), "rank.run (rest: jobs + polling)", t.median("rank.run", ms), "ms")
	case "mutate-ba":
		row("PATCH p50 (HTTP run)", one(in.PrimaryP50MS), "store.route_patch (no WAL)", t.median("store.route_patch", ms), "ms")
	case "plan-grid":
		row("read p50 (HTTP run)", one(in.PrimaryP50MS), "store.route_hit", t.median("store.route_hit", ms), "ms")
	default:
		row("read p50 (HTTP run)", one(in.PrimaryP50MS), "store.route_miss", t.median("store.route_miss", ms), "ms")
	}
}

func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
