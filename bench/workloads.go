package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// params sizes one workload. Each workload has a full size, which the
// benchmark runs, and a toy size (≤200 vertices) for the package test.
type params struct {
	n, attach  int           // Barabási–Albert graphs
	rows, cols int           // grids
	maxW       int           // grid edge weights are drawn from [1, maxW]; 0: unweighted
	pool       int           // measured target pool
	steps      int           // fixed chain length of a read
	firstShare float64       // share of requests that touch a new target (plan-grid)
	budget     int           // total_budget of a rank job
	liveChords int           // chords kept live by the writer (mutate-ba)
	writeEvery time.Duration // writer period (mutate-ba)
}

// graphSeed generates every workload's graph. The graphs are fixed so
// that runs differ only in their request streams, which --seed draws:
// with a graph per seed, its shape alone moved latency and error by more
// than the bounds the benchmark has to resolve.
const graphSeed = 1

// warmups is the number of requests each start sends, on targets outside
// the measured pool, before its set-up time is taken.
const warmups = 16

// walCompactBytes is the WAL size at which mutate-ba's durable session
// compacts; small, so compaction cycles several times in one run.
const walCompactBytes = 8192

// workload is one traffic mix over one generated graph.
type workload struct {
	name    string
	id      string // session id on the server
	conns   int    // connections the traffic uses
	durable bool   // the session persists to a data directory
	full    params
	toy     params
	// gen builds the graph and fills r.pool and r.warm.
	gen func(r *run)
	// warm sends the warm-up requests of one start.
	warm func(ctx context.Context, r *run) error
	// measure drives the traffic until r.deadline or r.maxReqs.
	measure func(ctx context.Context, r *run)
	// finish runs the post-window checks.
	finish func(ctx context.Context, r *run)
}

var workloads = []*workload{
	// Chain-bound: fixed steps skip μ and distinct seeds miss the result
	// cache, so the hybrid BFS and the identity scan do nearly all the work.
	// One client, so that the server is idle while it calibrates.
	{
		name:  "estimate-ba",
		id:    "ba",
		conns: 1,
		full:  params{n: 10000, attach: 3, pool: 512, steps: 128},
		toy:   params{n: 200, attach: 3, pool: 32, steps: 32},
		gen:   genBA,
		warm:  warmReads,
		measure: func(ctx context.Context, r *run) {
			readLoop(ctx, r, true)
		},
	},
	// μ- and cache-bound: first touches derive μ, repeats hit the caches.
	// Grids stay on the classic BFS loop, and σ on a 40×40 grid exceeds 2^53.
	// One client: a first touch derives μ with a worker per core, so two
	// clients oversubscribe a two-core machine, and whole runs then fall
	// into a mode that spends half as much CPU again per request. One
	// client also leaves the server idle while it calibrates.
	{
		name:  "plan-grid",
		id:    "grid",
		conns: 1,
		full:  params{rows: 40, cols: 40, firstShare: 0.3},
		toy:   params{rows: 12, cols: 12, firstShare: 0.3},
		gen: func(r *run) {
			r.g = grid(r.p.rows, r.p.cols, 0, nil)
			r.exact = reference(r.g, r.refDir)
			perm := newRand(graphSeed, 2).Perm(r.g.n)
			r.warm = perm[:warmups]
			// First touches take the pool in this order. Stratified by
			// betweenness, the targets one run touches are as costly and
			// as hard to estimate as another run's.
			r.pool = stratify(perm[warmups:], r.exact, newRand(r.seed, 1))
		},
		warm: func(ctx context.Context, r *run) error {
			for _, v := range r.warm {
				if err := r.estimate(ctx, planned(v, r.seed), nil); err != nil {
					return err
				}
			}
			return nil
		},
		measure: measurePlanGrid,
	},
	// The only traffic on the weighted (Dijkstra) kernel and the jobs layer.
	{
		name:  "rank-road",
		id:    "road",
		conns: 1,
		full:  params{rows: 20, cols: 20, maxW: 10, steps: 128, budget: 65536},
		toy:   params{rows: 10, cols: 10, maxW: 10, steps: 32, budget: 1024},
		gen: func(r *run) {
			r.g = grid(r.p.rows, r.p.cols, r.p.maxW, newRand(graphSeed, 1))
			r.exact = reference(r.g, r.refDir)
			r.warm = newRand(graphSeed, 2).Perm(r.g.n)[:warmups]
		},
		warm:    warmReads,
		measure: measureRankRoad,
	},
	// Writes beside reads: each PATCH rebuilds the CSR, swaps the engine
	// snapshot and appends to a WAL that compacts several times a run.
	{
		name:    "mutate-ba",
		id:      "mut",
		conns:   2,
		durable: true,
		full:    params{n: 5000, attach: 3, pool: 512, steps: 128, liveChords: 32, writeEvery: 20 * time.Millisecond},
		toy:     params{n: 200, attach: 3, pool: 32, steps: 32, liveChords: 4, writeEvery: 20 * time.Millisecond},
		// Reads are held to the graph as uploaded: the at most 32 live
		// chords move the pool's exact betweenness by 0.2% at the median
		// (22% at most), against estimation errors of several hundred
		// percent.
		gen:     genBA,
		warm:    warmReads,
		measure: measureMutateBA,
		finish:  finishMutateBA,
	},
}

// genBA builds a Barabási–Albert graph and its targets: the measured
// pool is the highest-degree vertices in a seeded order stratified by
// betweenness, which reads cycle through, and the warm-up targets are the
// next ones down. A run reads about one pool's worth, so stratified, the
// targets it reaches are as hard to estimate as another run's.
func genBA(r *run) {
	r.g = barabasiAlbert(r.p.n, r.p.attach, newRand(graphSeed, 1))
	r.exact = reference(r.g, r.refDir)
	byDeg := r.g.byDegree()
	r.pool = stratify(byDeg[:r.p.pool], r.exact, newRand(r.seed, 1))
	r.warm = byDeg[r.p.pool : r.p.pool+warmups]
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run is one workload's generated inputs and everything measured on them.
type run struct {
	w       *workload
	p       params
	seed    uint64
	maxReqs int    // caps each request stream; 0: only the clock bounds it
	refDir  string // cache of reference betweenness; empty: none
	g       *graph
	exact   []float64 // reference betweenness of the graph as uploaded
	pool    []int
	warm    []int

	url    string // server root
	base   string // url + "/graphs/" + session id
	client *http.Client
	cal    *calibrator

	start, deadline time.Time
	next            atomic.Int64 // index of the next closed-loop request

	mu        sync.Mutex
	lat       []float64   // latencies of the workload's primary operation, ms
	latAt     []time.Time // midpoint of each of them
	closed    int         // closed-loop operations completed
	last      time.Time   // latest completion
	relErr    []float64   // |estimate − exact| / exact
	attempted int
	failed    int
	ops       int // operations completed
	failures  []string
	reads     readCounts
	hit       *estimateRequest // a request the result cache now holds
	traced    []estimateRequest
	extra     map[string]float64 // workload diagnostics for the results file

	// plan-grid
	values map[int]float64
	// rank-road
	jobs    jobCounts
	rankReq *rankRequest
	// mutate-ba
	chords    [][2]int // live chords, oldest first
	writes    int
	writeLate []float64
}

// readCounts sums reply fields of estimates that ran a chain.
type readCounts struct {
	n, evals, hits int
	accept         float64
}

type jobCounts struct {
	n                       int
	rounds, pruned, overlap float64
}

func (r *run) relative(v int, got float64) {
	if want := r.exact[v]; want > 0 {
		r.relErr = append(r.relErr, math.Abs(got-want)/want)
	}
}

// take claims the next closed-loop request index, or reports that the
// window is over. The clock is read before the claim, so every index
// below a claimed one is claimed too.
func (r *run) take() (int, bool) {
	if !time.Now().Before(r.deadline) {
		return 0, false
	}
	i := int(r.next.Add(1) - 1)
	if r.maxReqs > 0 && i >= r.maxReqs {
		return 0, false
	}
	return i, true
}

// done records one successful operation, timed from `from` until now.
// primary operations feed the latency percentiles; closed-loop ones feed
// the throughput.
func (r *run) done(from time.Time, primary, closedLoop bool) {
	now := time.Now()
	lat := now.Sub(from)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.ops++
	if primary {
		r.lat = append(r.lat, float64(lat)/float64(time.Millisecond))
		r.latAt = append(r.latAt, from.Add(lat/2))
	}
	if closedLoop {
		r.closed++
	}
	if now.After(r.last) {
		r.last = now
	}
}

// scaledLat returns the primary latencies brought to the reference speed,
// each by the calibration at its midpoint.
func (r *run) scaledLat() []float64 {
	out := make([]float64, len(r.lat))
	for i, l := range r.lat {
		out[i] = l * r.cal.scale(r.latAt[i])
	}
	return out
}

// fail records one failed operation: a transport error, a non-2xx reply
// or a failed check.
func (r *run) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// mix is SplitMix64 over its arguments: request i's choices are a pure
// function of (seed, i), so the request stream never depends on which
// client happens to send it.
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

type estimateRequest struct {
	Vertex   int     `json:"vertex"`
	Steps    int     `json:"steps,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	MaxSteps int     `json:"max_steps,omitempty"`
	Seed     uint64  `json:"seed"`
}

type estimateReply struct {
	Vertex         int     `json:"vertex"`
	Value          float64 `json:"value"`
	PlannedSteps   int     `json:"planned_steps"`
	Seed           uint64  `json:"seed"`
	AcceptanceRate float64 `json:"acceptance_rate"`
	Evals          int     `json:"evals"`
	CacheHits      int     `json:"cache_hits"`
}

type statsReply struct {
	M            int    `json:"m"`
	Version      uint64 `json:"version"`
	MuHits       uint64 `json:"mu_hits"`
	MuMisses     uint64 `json:"mu_misses"`
	ResultHits   uint64 `json:"result_hits"`
	ResultMisses uint64 `json:"result_misses"`
	WalBytes     int64  `json:"wal_bytes"`
}

// planned is plan-grid's estimate: steps planned from (ε, δ) and the
// target's exact μ, under one fixed request seed.
func planned(v int, seed uint64) estimateRequest {
	return estimateRequest{Vertex: v, Epsilon: 0.05, Delta: 0.1, MaxSteps: 4096, Seed: mix(seed, 7) | 1}
}

// read is request i of a 128-step read stream: the next pool target in
// turn, so that every run covers the pool evenly, and a unique chain seed.
func (r *run) read(stream uint64, i int) estimateRequest {
	return estimateRequest{Vertex: r.pool[i%len(r.pool)], Steps: r.p.steps, Seed: mix(r.seed, stream, uint64(i)) | 1}
}

// estimate sends one estimate and checks the reply. A nil out discards
// the reply after the checks.
func (r *run) estimate(ctx context.Context, req estimateRequest, out *estimateReply) error {
	var rep estimateReply
	if err := call(ctx, r.client, http.MethodPost, r.base+"/estimate", req, http.StatusOK, &rep); err != nil {
		return err
	}
	if err := checkEstimate(req, rep); err != nil {
		return err
	}
	if out != nil {
		*out = rep
	}
	r.mu.Lock()
	r.hit = &req
	r.mu.Unlock()
	return nil
}

// checkEstimate holds a reply to what the request implies: the same
// vertex and seed, a finite value in [0,1], the step budget asked for,
// and one oracle lookup per step plus the initial state.
func checkEstimate(req estimateRequest, rep estimateReply) error {
	switch {
	case rep.Vertex != req.Vertex || rep.Seed != req.Seed:
		return fmt.Errorf("estimate of %d (seed %d) answered for %d (seed %d)", req.Vertex, req.Seed, rep.Vertex, rep.Seed)
	case math.IsNaN(rep.Value) || rep.Value < 0 || rep.Value > 1:
		return fmt.Errorf("estimate of %d: value %v outside [0,1]", req.Vertex, rep.Value)
	case req.Steps > 0 && rep.PlannedSteps != req.Steps:
		return fmt.Errorf("estimate of %d: ran %d steps, asked %d", req.Vertex, rep.PlannedSteps, req.Steps)
	case req.Steps == 0 && (rep.PlannedSteps < 1 || rep.PlannedSteps > req.MaxSteps):
		return fmt.Errorf("estimate of %d: planned %d steps outside [1,%d]", req.Vertex, rep.PlannedSteps, req.MaxSteps)
	case rep.Evals+rep.CacheHits != rep.PlannedSteps+1:
		return fmt.Errorf("estimate of %d: %d evals + %d memo hits for %d steps", req.Vertex, rep.Evals, rep.CacheHits, rep.PlannedSteps)
	case rep.AcceptanceRate < 0 || rep.AcceptanceRate > 1:
		return fmt.Errorf("estimate of %d: acceptance rate %v", req.Vertex, rep.AcceptanceRate)
	}
	return nil
}

func (r *run) countRead(rep estimateReply) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads.n++
	r.reads.evals += rep.Evals
	r.reads.hits += rep.CacheHits
	r.reads.accept += rep.AcceptanceRate
}

// traceSample keeps every 8th request of the window's first quarter for
// the traced replay.
func (r *run) traceSample(i int, req estimateRequest) {
	if i%8 == 0 && time.Since(r.start) < r.deadline.Sub(r.start)/4 {
		r.mu.Lock()
		r.traced = append(r.traced, req)
		r.mu.Unlock()
	}
}

func warmReads(ctx context.Context, r *run) error {
	for i, v := range r.warm {
		req := estimateRequest{Vertex: v, Steps: r.p.steps, Seed: mix(r.seed, 3, uint64(i)) | 1}
		if err := r.estimate(ctx, req, nil); err != nil {
			return err
		}
	}
	return nil
}

// readLoop is a closed-loop client sending 128-step reads. Reads are the
// primary operation when primary is set; their error against the
// reference is recorded when the reference is known.
func readLoop(ctx context.Context, r *run, primary bool) {
	for {
		r.cal.due()
		i, ok := r.take()
		if !ok {
			return
		}
		req := r.read(0, i)
		r.traceSample(i, req)
		var rep estimateReply
		t0 := time.Now()
		if err := r.estimate(ctx, req, &rep); err != nil {
			r.fail(err)
			continue
		}
		r.done(t0, primary, true)
		r.countRead(rep)
		if r.exact != nil {
			r.mu.Lock()
			r.relative(req.Vertex, rep.Value)
			r.mu.Unlock()
		}
	}
}

// firstTouch reports whether plan-grid request i touches a new target:
// of every block of ten requests, the firstShare with the lowest hashes
// do, so the share is exact in every run.
func (r *run) firstTouch(i int) bool {
	const block = 10
	h, lower := mix(r.seed, 4, uint64(i)), 0
	for j := i / block * block; j < (i/block+1)*block; j++ {
		if mix(r.seed, 4, uint64(j)) < h {
			lower++
		}
	}
	return lower < int(math.Round(r.p.firstShare*block))
}

// measurePlanGrid: one closed-loop client. A share firstShare of the
// requests touches the next untouched target of the pool with a planned
// estimate, which derives μ and runs the chain. The rest revisit the
// target of a uniformly drawn earlier first touch: the same estimate
// again (a result cache hit) or its exact value (a μ cache hit), half and
// half. Request i is a function of (seed, i) alone.
func measurePlanGrid(ctx context.Context, r *run) {
	r.values = map[int]float64{}
	sent, touched := 0, 0
	for {
		r.cal.due()
		i, ok := r.take()
		if !ok {
			break
		}
		sent++
		k, exact := touched, false
		if i == 0 || r.firstTouch(i) && touched < len(r.pool) {
			touched++
		} else {
			h := mix(r.seed, 8, uint64(i))
			k, exact = int(mix(h)%uint64(touched)), unit(mix(h, 1)) >= 0.5
		}
		v := r.pool[k]
		t0 := time.Now()
		var err error
		if exact {
			err = r.exactRead(ctx, v)
		} else {
			err = r.planGridEstimate(ctx, i, v)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		r.done(t0, true, true)
	}
	r.extra["first_touch_share"] = float64(touched) / float64(max(1, sent))
}

func (r *run) planGridEstimate(ctx context.Context, i, v int) error {
	req := planned(v, r.seed)
	r.traceSample(i, req)
	var rep estimateReply
	if err := r.estimate(ctx, req, &rep); err != nil {
		return err
	}
	r.mu.Lock()
	prev, seen := r.values[v]
	if !seen {
		r.values[v] = rep.Value
		r.relative(v, rep.Value)
	}
	r.mu.Unlock()
	if seen && prev != rep.Value {
		return fmt.Errorf("repeated estimate of %d changed: %v then %v", v, prev, rep.Value)
	}
	if !seen {
		r.countRead(rep)
	}
	return nil
}

// exactRead fetches /exact/v and holds it to the reference to 1e-9
// relative.
func (r *run) exactRead(ctx context.Context, v int) error {
	var rep struct {
		Vertex int     `json:"vertex"`
		BC     float64 `json:"bc"`
	}
	if err := call(ctx, r.client, http.MethodGet, fmt.Sprintf("%s/exact/%d", r.base, v), nil, http.StatusOK, &rep); err != nil {
		return err
	}
	if want := r.exact[v]; rep.Vertex != v || !(math.Abs(rep.BC-want) <= 1e-9*want+1e-15) {
		return fmt.Errorf("exact of %d: got %v for vertex %d, reference %v", v, rep.BC, rep.Vertex, want)
	}
	return nil
}

type rankEntry struct {
	Vertex   int     `json:"vertex"`
	Estimate float64 `json:"estimate"`
}

type rankResult struct {
	GraphVersion uint64      `json:"graph_version"`
	Top          []rankEntry `json:"top"`
	Candidates   int         `json:"candidates"`
	Pruned       int         `json:"pruned"`
	Rounds       int         `json:"rounds"`
	ElapsedMS    float64     `json:"elapsed_ms"`
}

type rankRequest struct {
	K             int    `json:"k"`
	Seed          uint64 `json:"seed"`
	TotalBudget   int    `json:"total_budget"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
}

// measureRankRoad: one closed-loop client submits a top-10 ranking job,
// polls it every 10ms until it is done, and submits the next.
func measureRankRoad(ctx context.Context, r *run) {
	exactTop := map[int]bool{}
	for _, v := range topK(r.exact, 10) {
		exactTop[v] = true
	}
	for {
		r.cal.due()
		i, ok := r.take()
		if !ok {
			return
		}
		req := rankRequest{K: 10, Seed: mix(r.seed, 5, uint64(i)) | 1, TotalBudget: r.p.budget}
		if i == 0 {
			r.rankReq = &req
		}
		t0 := time.Now()
		res, err := r.rankJob(ctx, req)
		if err == nil {
			err = r.checkRanking(res)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		r.done(t0, true, true)
		r.mu.Lock()
		hits := 0
		for _, e := range res.Top {
			r.relative(e.Vertex, e.Estimate)
			if exactTop[e.Vertex] {
				hits++
			}
		}
		r.jobs.n++
		r.jobs.rounds += float64(res.Rounds)
		r.jobs.pruned += float64(res.Pruned) / float64(res.Candidates)
		r.jobs.overlap += float64(hits) / 10
		r.mu.Unlock()
	}
}

func (r *run) rankJob(ctx context.Context, req rankRequest) (rankResult, error) {
	var job struct {
		ID string `json:"id"`
	}
	if err := call(ctx, r.client, http.MethodPost, r.base+"/rank", req, http.StatusAccepted, &job); err != nil {
		return rankResult{}, err
	}
	for {
		select {
		case <-ctx.Done():
			return rankResult{}, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		var info struct {
			Status string     `json:"status"`
			Error  string     `json:"error"`
			Result rankResult `json:"result"`
		}
		if err := call(ctx, r.client, http.MethodGet, r.url+"/jobs/"+job.ID, nil, http.StatusOK, &info); err != nil {
			return rankResult{}, err
		}
		switch info.Status {
		case "running":
		case "done":
			return info.Result, nil
		default:
			return rankResult{}, fmt.Errorf("job %s ended %s: %s", job.ID, info.Status, info.Error)
		}
	}
}

// checkRanking requires ten distinct valid vertices with finite
// estimates in [0,1], computed on the uploaded version.
func (r *run) checkRanking(res rankResult) error {
	if len(res.Top) != 10 || res.GraphVersion != 0 || res.Candidates == 0 || res.ElapsedMS <= 0 {
		return fmt.Errorf("ranking: %d entries on version %d over %d candidates", len(res.Top), res.GraphVersion, res.Candidates)
	}
	seen := map[int]bool{}
	for _, e := range res.Top {
		if e.Vertex < 0 || e.Vertex >= r.g.n || seen[e.Vertex] || math.IsNaN(e.Estimate) || e.Estimate < 0 || e.Estimate > 1 {
			return fmt.Errorf("ranking: bad entry %+v", e)
		}
		seen[e.Vertex] = true
	}
	return nil
}

type editRequest struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

type mutateReply struct {
	Version uint64 `json:"version"`
	M       int    `json:"m"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
}

// measureMutateBA: an open-loop writer PATCHes one new chord per period,
// removing the oldest once liveChords are live, so the graph stays
// connected; a PATCH's latency runs from its scheduled send. A
// closed-loop reader sends 128-step reads on the second connection, and
// calibrates between them while the writer keeps its schedule.
func measureMutateBA(ctx context.Context, r *run) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readLoop(ctx, r, false)
	}()
	var wal int64
	for k := 0; r.maxReqs == 0 || k < r.maxReqs; k++ {
		due := r.start.Add(time.Duration(k) * r.p.writeEvery)
		if !due.Before(r.deadline) {
			break
		}
		time.Sleep(time.Until(due))
		r.writeLate = append(r.writeLate, float64(time.Since(due))/float64(time.Millisecond))
		if err := r.patch(ctx, k); err != nil {
			r.fail(err)
			break // the edit ledger no longer matches the server
		}
		r.done(due, true, false)
		if k%50 == 49 {
			var st statsReply
			if err := call(ctx, r.client, http.MethodGet, r.base+"/stats", nil, http.StatusOK, &st); err != nil {
				r.fail(err)
				break
			}
			if st.WalBytes < wal {
				r.extra["compactions"]++
			}
			wal = st.WalBytes
		}
	}
	wg.Wait()
}

// patch sends write k and checks that the version advanced by exactly
// one and the edge count matches the edit ledger.
func (r *run) patch(ctx context.Context, k int) error {
	add := r.chord(k)
	edits := []editRequest{{Op: "add", U: add[0], V: add[1]}}
	removed := 0
	if len(r.chords) == r.p.liveChords {
		old := r.chords[0]
		r.chords = r.chords[1:]
		edits = append(edits, editRequest{Op: "remove", U: old[0], V: old[1]})
		removed = 1
	}
	r.chords = append(r.chords, add)
	r.writes++
	var rep mutateReply
	body := map[string]any{"edits": edits}
	if err := call(ctx, r.client, http.MethodPatch, r.base+"/edges", body, http.StatusOK, &rep); err != nil {
		return err
	}
	if want := len(r.g.edges) + len(r.chords); rep.Version != uint64(r.writes) || rep.M != want || rep.Added != 1 || rep.Removed != removed {
		return fmt.Errorf("PATCH %d: version %d m %d +%d -%d, want version %d m %d +1 -%d",
			k, rep.Version, rep.M, rep.Added, rep.Removed, r.writes, want, removed)
	}
	return nil
}

// chord draws write k's new edge: a uniformly random vertex pair that is
// neither an edge of the generated graph nor a live chord.
func (r *run) chord(k int) [2]int {
	for a := uint64(0); ; a++ {
		h := mix(r.seed, 6, uint64(k), a)
		u, v := int(h%uint64(r.g.n)), int((h>>32)%uint64(r.g.n))
		if u == v || r.g.hasEdge(u, v) {
			continue
		}
		live := false
		for _, c := range r.chords {
			live = live || c == [2]int{u, v} || c == [2]int{v, u}
		}
		if !live {
			return [2]int{u, v}
		}
	}
}

// finishMutateBA checks the served graph against the edit ledger: the
// edge count and one version per write.
func finishMutateBA(ctx context.Context, r *run) {
	var st statsReply
	if err := call(ctx, r.client, http.MethodGet, r.base+"/stats", nil, http.StatusOK, &st); err != nil {
		r.fail(err)
		return
	}
	if want := len(r.g.edges) + len(r.chords); st.M != want || st.Version != uint64(r.writes) {
		r.fail(fmt.Errorf("final graph: m %d version %d, ledger says m %d version %d", st.M, st.Version, want, r.writes))
	}
}
