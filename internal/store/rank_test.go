package store

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/graph"
	"bcmh/internal/jobs"
	"bcmh/internal/measure"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

// jobView mirrors the jobs.Info JSON with the ranking payloads typed.
type jobView struct {
	ID       string        `json:"id"`
	Owner    string        `json:"owner"`
	Status   jobs.Status   `json:"status"`
	Progress *RankProgress `json:"progress"`
	Result   *RankResult   `json:"result"`
	Error    string        `json:"error"`
}

// pollJob polls GET /jobs/{id} until the job is terminal or the
// deadline passes, returning the final view. The deadline doubles as
// the promptness pin for cancellation tests.
func pollJob(t *testing.T, srv *httptest.Server, id string, deadline time.Duration) jobView {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		var view jobView
		if code := doJSON(t, http.MethodGet, srv.URL+"/jobs/"+id, nil, &view); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if view.Status.Terminal() {
			return view
		}
		if time.Now().After(end) {
			t.Fatalf("job %s still %q after %v (progress %+v)", id, view.Status, deadline, view.Progress)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// exactTop5Labels returns the exact top-5 label set of the karate club.
func exactTop5Labels(t *testing.T) map[int64]bool {
	t.Helper()
	bc, err := core.ExactBC(graph.KarateClub())
	if err != nil {
		t.Fatal(err)
	}
	top := make(map[int64]bool, 5)
	for _, v := range stats.TopKIndices(bc, 5) {
		top[int64(v)] = true
	}
	return top
}

func topLabelSet(entries []RankEntry) map[int64]bool {
	s := make(map[int64]bool, len(entries))
	for _, e := range entries {
		s[e.Vertex] = true
	}
	return s
}

func sameLabelSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// TestRankJobKarateTop5 is the end-to-end acceptance test: POST
// /graphs/{id}/rank on the karate club with default knobs returns a
// job whose final top-5 matches the exact top-5.
func TestRankJobKarateTop5(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "karate", graph.KarateClub())

	var created jobView
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{K: 5, Seed: 1}, &created); code != http.StatusAccepted {
		t.Fatalf("POST rank: status %d", code)
	}
	if created.ID == "" || created.Owner != "karate" {
		t.Fatalf("job creation reply: %+v", created)
	}
	final := pollJob(t, srv, created.ID, 30*time.Second)
	if final.Status != jobs.StatusDone {
		t.Fatalf("job finished %q (error %q)", final.Status, final.Error)
	}
	if final.Result == nil || len(final.Result.Top) != 5 {
		t.Fatalf("job result: %+v", final.Result)
	}
	if got, want := topLabelSet(final.Result.Top), exactTop5Labels(t); !sameLabelSet(got, want) {
		t.Fatalf("top-5 labels %v, exact %v", got, want)
	}
	if final.Result.Rounds < 1 || final.Result.TotalSteps == 0 {
		t.Fatalf("result bookkeeping: %+v", final.Result)
	}
}

// TestRankSyncFastPath pins both synchronous triggers: an explicit
// "sync": true on any server, and the ServerOptions.SyncRankN
// threshold with no sync field.
func TestRankSyncFastPath(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "karate", graph.KarateClub())
	syncTrue := true
	var res RankResult
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank",
		RankRequest{K: 5, Seed: 1, Sync: &syncTrue}, &res); code != http.StatusOK {
		t.Fatalf("sync rank: status %d", code)
	}
	if got, want := topLabelSet(res.Top), exactTop5Labels(t); !sameLabelSet(got, want) {
		t.Fatalf("sync top-5 %v, exact %v", got, want)
	}

	// Threshold-triggered sync: n=34 ≤ SyncRankN means 200-with-result
	// without asking.
	st := New(Config{})
	t.Cleanup(st.Close)
	srv2 := httptest.NewServer(NewServerWithOptions(st, ServerOptions{SyncRankN: 64}))
	t.Cleanup(srv2.Close)
	uploadGraph(t, srv2, "karate", graph.KarateClub())
	var res2 RankResult
	if code := doJSON(t, http.MethodPost, srv2.URL+"/graphs/karate/rank", RankRequest{K: 5, Seed: 1}, &res2); code != http.StatusOK {
		t.Fatalf("threshold sync rank: status %d", code)
	}
	if res2.Top[0].Vertex != res.Top[0].Vertex {
		t.Fatalf("threshold sync disagrees with explicit sync: %+v vs %+v", res2.Top[0], res.Top[0])
	}
}

// slowRankBody is a ranking request sized to run for minutes if never
// cancelled: every vertex of a 2000-vertex graph gets a 2^20-step
// coverage chain. (A bc ranking of that graph makes at most 2000
// source passes, under a second.)
func slowRankBody() RankRequest {
	return RankRequest{K: 5, InitialSteps: 1 << 20, MaxRounds: 1, Seed: 1, Measure: "coverage"}
}

// TestRankJobCancelPromptly pins the DELETE /jobs/{id} abort path: a
// ranking that would run for minutes goes terminal within seconds of
// cancellation.
func TestRankJobCancelPromptly(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "big", graph.BarabasiAlbert(2000, 3, rng.New(1)))

	var created jobView
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/big/rank", slowRankBody(), &created); code != http.StatusAccepted {
		t.Fatalf("POST rank: status %d", code)
	}
	var cancelled jobView
	if code := doJSON(t, http.MethodDelete, srv.URL+"/jobs/"+created.ID, nil, &cancelled); code != http.StatusAccepted {
		t.Fatalf("DELETE job: status %d", code)
	}
	final := pollJob(t, srv, created.ID, 5*time.Second)
	if final.Status != jobs.StatusCancelled {
		t.Fatalf("status %q after cancel (error %q)", final.Status, final.Error)
	}
	if !strings.Contains(final.Error, "cancelled") {
		t.Fatalf("cancel cause not surfaced: %q", final.Error)
	}
}

// TestSessionDeleteAbortsRankJob pins the lifecycle coupling: deleting
// the graph session kills its running ranking job promptly, and the
// job record (which outlives the session) reports the session-closed
// cause.
func TestSessionDeleteAbortsRankJob(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "doomed", graph.BarabasiAlbert(2000, 3, rng.New(2)))

	var created jobView
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/doomed/rank", slowRankBody(), &created); code != http.StatusAccepted {
		t.Fatalf("POST rank: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, srv.URL+"/graphs/doomed", nil, nil); code != http.StatusNoContent {
		t.Fatalf("DELETE graph: status %d", code)
	}
	final := pollJob(t, srv, created.ID, 5*time.Second)
	if final.Status != jobs.StatusCancelled {
		t.Fatalf("status %q after session delete (error %q)", final.Status, final.Error)
	}
	if !strings.Contains(final.Error, "session closed") {
		t.Fatalf("session-closed cause not surfaced: %q", final.Error)
	}
}

// TestRankRequestValidation pins the 400/404/429 error paths of the
// ranking surface.
func TestRankRequestValidation(t *testing.T) {
	st := New(Config{})
	t.Cleanup(st.Close)
	srv := httptest.NewServer(NewServerWithOptions(st, ServerOptions{MaxRankJobs: 1}))
	t.Cleanup(srv.Close)
	uploadGraph(t, srv, "karate", graph.KarateClub())

	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{K: MaxRankK + 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized k: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{Estimator: "bogus"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad estimator: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{Growth: 0.5}, nil); code != http.StatusBadRequest {
		t.Fatalf("sub-1 growth: status %d", code)
	}
	// Knobs only per-candidate chains use are a 400 on a bc ranking,
	// in both modes, rather than a silent change of meaning.
	for _, sync := range []bool{true, false} {
		for name, req := range map[string]RankRequest{
			"chain-avg": {K: 5, Estimator: "chain-avg", Sync: &sync},
			"adaptive":  {K: 5, Adaptive: true, Epsilon: 0.05, Sync: &sync},
		} {
			if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", req, nil); code != http.StatusBadRequest {
				t.Fatalf("bc rank with %s (sync %v): status %d", name, sync, code)
			}
		}
	}
	// A budget below the candidate count is a ranker-level error; the
	// sync path must surface it as 400, not a 200 with a broken body.
	syncT := true
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{K: 3, TotalBudget: 1, Sync: &syncT}, nil); code != http.StatusBadRequest {
		t.Fatalf("starved budget: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/nosuch/rank", RankRequest{K: 5}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/jobs/nosuchjob", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}

	// Concurrency bound: with one slot taken, the next rank is 429.
	uploadGraph(t, srv, "big", graph.BarabasiAlbert(1500, 3, rng.New(3)))
	// A client cannot force a large graph into the synchronous path —
	// that would bypass the job bound being tested below.
	syncTrue := true
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/big/rank", RankRequest{K: 5, Sync: &syncTrue}, nil); code != http.StatusBadRequest {
		t.Fatalf("forced sync on a large graph: want 400, got %d", code)
	}
	var created jobView
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/big/rank", slowRankBody(), &created); code != http.StatusAccepted {
		t.Fatalf("first rank: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{K: 5}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second rank: want 429, got %d", code)
	}
	if code := doJSON(t, http.MethodDelete, srv.URL+"/jobs/"+created.ID, nil, nil); code != http.StatusAccepted {
		t.Fatal("cancel cleanup failed")
	}
	pollJob(t, srv, created.ID, 5*time.Second)
}

// TestRankConfidenceBounded pins the confidence cap: a z large enough
// to overflow interval half-widths to ±Inf gets a 400 in both modes, so
// no job record with an unencodable payload is ever created and GET
// /jobs keeps answering every client.
func TestRankConfidenceBounded(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "karate", graph.KarateClub())
	syncTrue, syncFalse := true, false
	for _, req := range []RankRequest{
		{K: 5, Seed: 1, Confidence: 1e200, Sync: &syncTrue},
		{K: 5, Seed: 1, Confidence: 1e200, Sync: &syncFalse, MaxRounds: 2},
	} {
		if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", req, nil); code != http.StatusBadRequest {
			t.Fatalf("confidence 1e200 (sync %v): want 400, got %d", *req.Sync, code)
		}
	}
	var res RankResult
	req := RankRequest{K: 5, Seed: 1, Confidence: MaxRankConfidence, Sync: &syncTrue}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", req, &res); code != http.StatusOK {
		t.Fatalf("confidence at the cap: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/jobs", nil, nil); code != http.StatusOK {
		t.Fatalf("GET /jobs after the rejected requests: status %d", code)
	}
}

// TestRankMeasureSync pins the measure-generic ranking surface: a
// synchronous coverage ranking recovers the exact coverage top-5 (a
// different set than the bc top-5 at rank 4-5), echoes the measure in
// its payload, and the new knobs validate.
func TestRankMeasureSync(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	g := graph.KarateClub()
	uploadGraph(t, srv, "karate", g)

	syncTrue := true
	var res RankResult
	req := RankRequest{K: 5, Seed: 1, Measure: "coverage", Sync: &syncTrue}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", req, &res); code != http.StatusOK {
		t.Fatalf("coverage rank: status %d", code)
	}
	if res.Measure != "coverage" || res.Adaptive {
		t.Fatalf("measure echo: %+v", res)
	}
	// Exact coverage top-5 from the measure's brute-force column.
	vals := make([]float64, g.N())
	for r := 0; r < g.N(); r++ {
		ms, err := measure.Stats(context.Background(), g, measure.Spec{Kind: measure.Coverage}, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		vals[r] = ms.BC
	}
	want := make(map[int64]bool, 5)
	for _, v := range stats.TopKIndices(vals, 5) {
		want[int64(v)] = true
	}
	if got := topLabelSet(res.Top); !sameLabelSet(got, want) {
		t.Fatalf("coverage top-5 %v, exact %v", got, want)
	}

	// Adaptive coverage ranking: accepted, echoed, and completes.
	var ares RankResult
	areq := RankRequest{K: 5, Seed: 1, Measure: "coverage", Adaptive: true, Epsilon: 0.05, Delta: 0.1, Sync: &syncTrue}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", areq, &ares); code != http.StatusOK {
		t.Fatalf("adaptive rank: status %d", code)
	}
	if !ares.Adaptive || ares.Measure != "coverage" {
		t.Fatalf("adaptive echo: %+v", ares)
	}

	// Validation: unknown measure, misplaced measure_k, and adaptive
	// knobs without adaptive are all 400.
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{Measure: "bogus"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown measure: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{Measure: "coverage", MeasureK: 3}, nil); code != http.StatusBadRequest {
		t.Fatalf("misplaced measure_k: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/rank", RankRequest{Epsilon: 0.1}, nil); code != http.StatusBadRequest {
		t.Fatalf("epsilon without adaptive: status %d", code)
	}
}

// TestRankJobListAndProgress pins GET /jobs and the progress payload
// of a running multi-round ranking.
func TestRankJobListAndProgress(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "ba", graph.BarabasiAlbert(300, 3, rng.New(4)))

	// Small per-round chunks and many rounds so progress is observable;
	// the total budget keeps the test fast (even under -race) whether
	// or not refinement resolves — budget exhaustion is a normal
	// completion.
	req := RankRequest{K: 5, InitialSteps: 128, MaxRounds: 12, TotalBudget: 1 << 18, Seed: 1}
	var created jobView
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/ba/rank", req, &created); code != http.StatusAccepted {
		t.Fatalf("POST rank: status %d", code)
	}
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /jobs: status %d", code)
	}
	found := false
	for _, j := range list.Jobs {
		if j.ID == created.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("job %s missing from list %+v", created.ID, list.Jobs)
	}
	sawProgress := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var view jobView
		doJSON(t, http.MethodGet, srv.URL+"/jobs/"+created.ID, nil, &view)
		if view.Progress != nil && view.Progress.Round >= 1 && len(view.Progress.Top) > 0 {
			sawProgress = true
		}
		if view.Status.Terminal() {
			if view.Status != jobs.StatusDone {
				t.Fatalf("job ended %q: %s", view.Status, view.Error)
			}
			// A finished multi-round job must have reported progress at
			// some point (the run takes multiple rounds on this graph),
			// and its result must carry the completed-rounds count.
			if view.Result == nil || view.Result.Rounds < 1 {
				t.Fatalf("terminal result: %+v", view.Result)
			}
			if !sawProgress && view.Result.Rounds > 1 {
				t.Fatal("multi-round job never exposed progress")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
}
