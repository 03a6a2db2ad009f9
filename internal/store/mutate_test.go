package store

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/jobs"
	"bcmh/internal/rng"
)

// gridWithPendantRing is the acceptance-test topology: a rows×cols
// grid (one big biconnected block), a pendant ring attached to grid
// vertex 0 by a bridge. Edits inside the grid provably cannot affect
// the ring vertices' dependency columns — the μ-retention scenario.
func gridWithPendantRing(rows, cols, ringLen int) *graph.Graph {
	n := rows*cols + ringLen
	b := graph.NewBuilder(n)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	ring0 := rows * cols
	for i := 0; i < ringLen; i++ {
		b.AddEdge(ring0+i, ring0+(i+1)%ringLen)
	}
	b.AddEdge(0, ring0) // the bridge
	return b.MustBuild()
}

func patchEdges(t *testing.T, srv *httptest.Server, id string, req MutateRequest) (MutateResponse, int) {
	t.Helper()
	var out MutateResponse
	code := doJSON(t, http.MethodPatch, srv.URL+"/graphs/"+id+"/edges", req, &out)
	return out, code
}

func sessionStats(t *testing.T, srv *httptest.Server, id string) SessionStatsResponse {
	t.Helper()
	var stats SessionStatsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/"+id+"/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	return stats
}

// TestHTTPMutateAcceptance is the end-to-end dynamic-graph scenario:
// create a session, start a long estimate, PATCH an edit batch
// mid-flight, and check that (a) the in-flight request returns the
// pre-mutation answer bit-identically, (b) a fresh request reflects
// the new graph bit-identically to a from-scratch build of it, (c)
// /stats and the session Info report the bumped version, and (d) a
// μ-cache entry provably unaffected by the batch is served without
// recomputation (mu_misses build-count pin).
func TestHTTPMutateAcceptance(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	g := gridWithPendantRing(30, 30, 12)
	list := edgeList(t, g)
	uploadGraph(t, srv, "dyn", g)
	// Reference sessions: "pre" stays unmutated; "post" is built from
	// scratch over the post-mutation edge set (appending the added
	// edges keeps the label compaction identical, so chains are
	// bit-comparable).
	addedEdges := "31 90\n465 467\n"
	resp, err := http.Post(srv.URL+"/graphs?id=pre", "text/plain", strings.NewReader(list))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(srv.URL+"/graphs?id=post", "text/plain", strings.NewReader(list+addedEdges))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var info Info
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/dyn", nil, &info); code != http.StatusOK || info.Version != 0 || info.Mutations != 0 {
		t.Fatalf("fresh session info: %d %+v", code, info)
	}

	// Warm a μ entry for a ring vertex (label 905) — provably outside
	// the grid block the batch will edit.
	var exact1 engine.ExactResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/dyn/exact/905", nil, &exact1); code != http.StatusOK {
		t.Fatalf("exact: status %d", code)
	}
	if got := sessionStats(t, srv, "dyn"); got.MuMisses != 1 {
		t.Fatalf("mu_misses = %d after one exact query, want 1", got.MuMisses)
	}

	// Long estimate on the grid center (label 465), fixed steps+seed.
	estReq := engine.EstimateRequest{Vertex: 465, Steps: 4000000, Seed: 3}
	type estOut struct {
		resp engine.EstimateResponse
		code int
	}
	inflight := make(chan estOut, 1)
	go func() {
		var er engine.EstimateResponse
		code := doJSON(t, http.MethodPost, srv.URL+"/graphs/dyn/estimate", estReq, &er)
		inflight <- estOut{er, code}
	}()
	deadline := time.Now().Add(30 * time.Second)
	sawInFlight := false
	for !sawInFlight {
		if time.Now().After(deadline) {
			t.Fatal("estimate never became in-flight")
		}
		if sessionStats(t, srv, "dyn").InFlight >= 1 {
			sawInFlight = true
			break
		}
		select {
		case out := <-inflight:
			inflight <- out // completed before we could mutate mid-flight
			sawInFlight = true
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}

	// PATCH two grid chords mid-flight, with the if_version
	// precondition.
	v0 := uint64(0)
	mresp, code := patchEdges(t, srv, "dyn", MutateRequest{
		Edits: []EditRequest{
			{Op: "add", U: 31, V: 90},
			{Op: "add", U: 465, V: 467},
		},
		IfVersion: &v0,
	})
	if code != http.StatusOK {
		t.Fatalf("PATCH: status %d (%+v)", code, mresp)
	}
	if mresp.Version != 1 || mresp.Added != 2 || mresp.Removed != 0 {
		t.Fatalf("PATCH response %+v", mresp)
	}
	if mresp.MuRetained != 1 || mresp.MuInvalidated != 0 {
		t.Fatalf("μ retention = %d/%d, want 1 retained (the ring entry), 0 invalidated", mresp.MuRetained, mresp.MuInvalidated)
	}

	// (a) The in-flight request answers with the pre-mutation chain,
	// bit-identical to the never-mutated reference session.
	out := <-inflight
	if out.code != http.StatusOK {
		t.Fatalf("in-flight estimate: status %d", out.code)
	}
	var preRef engine.EstimateResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/pre/estimate", estReq, &preRef); code != http.StatusOK {
		t.Fatalf("pre reference estimate: status %d", code)
	}
	if out.resp.Value != preRef.Value || out.resp.Evals != preRef.Evals {
		t.Fatalf("in-flight estimate %v (evals %d) != pre-mutation reference %v (evals %d)",
			out.resp.Value, out.resp.Evals, preRef.Value, preRef.Evals)
	}

	// (b) A fresh request reflects the new graph, bit-identical to the
	// from-scratch post-mutation session.
	var fresh, postRef engine.EstimateResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/dyn/estimate", estReq, &fresh); code != http.StatusOK {
		t.Fatalf("fresh estimate: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/post/estimate", estReq, &postRef); code != http.StatusOK {
		t.Fatalf("post reference estimate: status %d", code)
	}
	if fresh.Value != postRef.Value {
		t.Fatalf("post-mutation estimate %v != from-scratch reference %v", fresh.Value, postRef.Value)
	}
	if fresh.Value == preRef.Value {
		t.Fatal("post-mutation estimate identical to pre-mutation value; the chords should perturb the chain")
	}

	// (c) Version is visible on /stats and the session info.
	stats := sessionStats(t, srv, "dyn")
	if stats.Version != 1 || stats.Swaps != 1 {
		t.Fatalf("stats version/swaps = %d/%d, want 1/1", stats.Version, stats.Swaps)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/dyn", nil, &info); code != http.StatusOK || info.Version != 1 || info.Mutations != 1 || info.M != g.M()+2 {
		t.Fatalf("post-mutation info: %d %+v", code, info)
	}

	// (d) The retained ring μ entry serves /exact without a new
	// computation and the value matches the from-scratch build.
	muMissesBefore := stats.MuMisses
	var exact2, exactPost engine.ExactResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/dyn/exact/905", nil, &exact2); code != http.StatusOK {
		t.Fatalf("exact after mutation: status %d", code)
	}
	if exact2.BC != exact1.BC {
		t.Fatalf("retained exact BC changed: %v -> %v", exact1.BC, exact2.BC)
	}
	if got := sessionStats(t, srv, "dyn").MuMisses; got != muMissesBefore {
		t.Fatalf("retained μ entry recomputed: mu_misses %d -> %d", muMissesBefore, got)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/post/exact/905", nil, &exactPost); code != http.StatusOK {
		t.Fatalf("post exact: status %d", code)
	}
	if diff := exact2.BC - exactPost.BC; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("retained exact %v != from-scratch exact %v", exact2.BC, exactPost.BC)
	}
}

func TestMutatePreconditionAndRejections(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "ring", graph.Cycle(12))

	// if_version mismatch: 409, nothing applied.
	v5 := uint64(5)
	if _, code := patchEdges(t, srv, "ring", MutateRequest{
		Edits:     []EditRequest{{Op: "add", U: 0, V: 6}},
		IfVersion: &v5,
	}); code != http.StatusConflict {
		t.Fatalf("stale if_version: status %d, want 409", code)
	}

	// Disconnecting batch: 400, nothing applied.
	if _, code := patchEdges(t, srv, "ring", MutateRequest{
		Edits: []EditRequest{
			{Op: "remove", U: 0, V: 1},
			{Op: "remove", U: 6, V: 7},
		},
	}); code != http.StatusBadRequest {
		t.Fatalf("disconnecting batch: status %d, want 400", code)
	}

	// Unknown label: 404.
	if _, code := patchEdges(t, srv, "ring", MutateRequest{
		Edits: []EditRequest{{Op: "add", U: 0, V: 99}},
	}); code != http.StatusNotFound {
		t.Fatalf("unknown label: status %d, want 404", code)
	}

	// Bad op, empty batch, removal of a missing edge: 400.
	for name, req := range map[string]MutateRequest{
		"bad op":         {Edits: []EditRequest{{Op: "toggle", U: 0, V: 1}}},
		"empty":          {},
		"remove missing": {Edits: []EditRequest{{Op: "remove", U: 0, V: 5}}},
		"add existing":   {Edits: []EditRequest{{Op: "add", U: 0, V: 1}}},
	} {
		if _, code := patchEdges(t, srv, "ring", req); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
	}

	// Unknown session: 404.
	if _, code := patchEdges(t, srv, "nope", MutateRequest{
		Edits: []EditRequest{{Op: "add", U: 0, V: 2}},
	}); code != http.StatusNotFound {
		t.Fatal("unknown session accepted")
	}

	// After all rejections the session is untouched.
	var info Info
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/ring", nil, &info); code != http.StatusOK || info.Version != 0 || info.Mutations != 0 || info.M != 12 {
		t.Fatalf("session perturbed by rejected batches: %+v", info)
	}

	// A valid batch then applies with the correct precondition.
	v0 := uint64(0)
	out, code := patchEdges(t, srv, "ring", MutateRequest{
		Edits:     []EditRequest{{Op: "add", U: 0, V: 6}},
		IfVersion: &v0,
	})
	if code != http.StatusOK || out.Version != 1 || out.M != 13 {
		t.Fatalf("valid batch: %d %+v", code, out)
	}
}

// TestMutateErrorsSpeakLabels pins that per-edge rejections report the
// client's input labels, not the engine's internal vertex ids.
func TestMutateErrorsSpeakLabels(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	resp, err := http.Post(srv.URL+"/graphs?id=shifted", "text/plain",
		strings.NewReader("100 101\n101 102\n102 103\n103 100\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	code := doJSON(t, http.MethodPatch, srv.URL+"/graphs/shifted/edges", MutateRequest{
		Edits: []EditRequest{{Op: "add", U: 101, V: 102}},
	}, &e)
	if code != http.StatusBadRequest {
		t.Fatalf("add-existing: status %d", code)
	}
	if !strings.Contains(e.Error, "(101,102)") || strings.Contains(e.Error, "(1,2)") {
		t.Fatalf("error %q should name the labels (101,102), not engine ids", e.Error)
	}
}

// TestMutateRecostsSessionBudget pins the budget re-accounting: the
// session's Bytes and the store total move with the edge count.
func TestMutateRecostsSessionBudget(t *testing.T) {
	st, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "ring", graph.Cycle(50))
	before := st.Stats().TotalBytes
	var edits []EditRequest
	for i := 0; i < 10; i++ {
		edits = append(edits, EditRequest{Op: "add", U: int64(i), V: int64(i + 20)})
	}
	out, code := patchEdges(t, srv, "ring", MutateRequest{Edits: edits})
	if code != http.StatusOK {
		t.Fatalf("PATCH: status %d", code)
	}
	after := st.Stats().TotalBytes
	if after-before != 32*10 {
		t.Fatalf("store total moved by %d bytes for 10 added edges, want %d", after-before, 32*10)
	}
	sess, err := st.Get("ring")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Cost() != out.Bytes || out.Bytes != before+32*10 {
		t.Fatalf("session cost %d, response bytes %d, pre-mutation total %d", sess.Cost(), out.Bytes, before)
	}
}

// startRankJob posts a ranking job and returns its id.
func startRankJob(t *testing.T, srv *httptest.Server, id string, req RankRequest) string {
	t.Helper()
	f := false
	req.Sync = &f
	var info struct {
		ID string `json:"id"`
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/"+id+"/rank", req, &info); code != http.StatusAccepted {
		t.Fatalf("rank: status %d", code)
	}
	return info.ID
}

// TestRankJobOnMutateCancel: a job started with on_mutate=cancel is
// aborted by a PATCH, with a versioned cause in the job record.
func TestRankJobOnMutateCancel(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	g := graph.BarabasiAlbert(300, 3, rng.New(9))
	uploadGraph(t, srv, "ba", g)
	// Coverage chains keep the job running past the PATCH; a bc job on
	// 300 vertices is done after 300 source passes.
	jid := startRankJob(t, srv, "ba", RankRequest{
		K: 5, InitialSteps: 65536, MaxRounds: 16, Seed: 1, Measure: "coverage",
		OnMutate: OnMutateCancel,
	})
	// Meta records the start version and policy from the outset.
	var mv struct {
		Meta map[string]any `json:"meta"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/jobs/"+jid, nil, &mv); code != http.StatusOK {
		t.Fatalf("job: status %d", code)
	}
	if mv.Meta["on_mutate"] != OnMutateCancel || mv.Meta["graph_version"] != float64(0) {
		t.Fatalf("job meta = %#v", mv.Meta)
	}

	// Any chord works; find a non-edge among the hubs.
	var u, v int64 = -1, -1
	for a := 0; a < 20 && u < 0; a++ {
		for b := a + 1; b < 20; b++ {
			if !g.HasEdge(a, b) {
				u, v = int64(a), int64(b)
				break
			}
		}
	}
	if _, code := patchEdges(t, srv, "ba", MutateRequest{
		Edits: []EditRequest{{Op: "add", U: u, V: v}},
	}); code != http.StatusOK {
		t.Fatalf("PATCH: status %d", code)
	}
	final := pollJob(t, srv, jid, 10*time.Second)
	if final.Status != jobs.StatusCancelled {
		t.Fatalf("job status = %s (error %q), want cancelled", final.Status, final.Error)
	}
	if !strings.Contains(final.Error, "version 1") || !strings.Contains(final.Error, "on_mutate=cancel") {
		t.Fatalf("job error %q lacks the versioned cause", final.Error)
	}
}

// TestRankJobOnMutateFinish: the default policy completes on the
// snapshot the job started on and stamps its version into the result.
func TestRankJobOnMutateFinish(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	g := graph.BarabasiAlbert(200, 3, rng.New(11))
	uploadGraph(t, srv, "ba", g)
	jid := startRankJob(t, srv, "ba", RankRequest{K: 3, InitialSteps: 2048, Seed: 1})
	if _, code := patchEdges(t, srv, "ba", MutateRequest{
		Edits: []EditRequest{{Op: "add", U: 0, V: 199}},
	}); code != http.StatusOK {
		// Vertices 0 and 199 might already be adjacent in this BA draw;
		// fall back to another chord.
		if _, code2 := patchEdges(t, srv, "ba", MutateRequest{
			Edits: []EditRequest{{Op: "add", U: 1, V: 198}},
		}); code2 != http.StatusOK {
			t.Fatalf("PATCH: statuses %d, %d", code, code2)
		}
	}
	final := pollJob(t, srv, jid, 30*time.Second)
	if final.Status != jobs.StatusDone {
		t.Fatalf("job status = %s (error %q), want done", final.Status, final.Error)
	}
	if final.Result == nil || final.Result.GraphVersion != 0 {
		t.Fatalf("result = %+v, want graph_version 0 (the snapshot the job started on)", final.Result)
	}
	if final.Result.Graph != "ba" {
		t.Fatalf("result graph = %v", final.Result.Graph)
	}
}
