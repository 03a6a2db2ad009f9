package store

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bcmh/internal/rank"
)

// fuzzRankWorkBound caps the chain steps a fuzzed ranking may run, so
// every input finishes in milliseconds on karate. Inputs whose knobs
// allow more are skipped, not sent.
const fuzzRankWorkBound = 1 << 18

// rankWork bounds the MH steps a ranking request can run on an n-vertex
// graph: every candidate runs every round's chunk, capped by the total
// budget, where an unset budget counts as the serving default
// MaxRankBudget. Zero knobs take the internal/rank defaults.
func rankWork(req RankRequest, n int) int {
	budget := req.TotalBudget
	if budget <= 0 {
		budget = MaxRankBudget
	}
	cands := n
	if req.MaxCandidates > 0 && req.MaxCandidates < n {
		cands = req.MaxCandidates
	}
	chunk, growth, rounds := req.InitialSteps, req.Growth, req.MaxRounds
	if chunk <= 0 {
		chunk = rank.DefaultInitialSteps
	}
	if growth < 1 {
		growth = rank.DefaultGrowth
	}
	if rounds <= 0 {
		rounds = rank.DefaultMaxRounds
	}
	work := 0
	for r := 0; r < rounds && work < budget; r++ {
		work += cands * chunk
		next := int(float64(chunk) * growth)
		if next <= chunk {
			next = chunk + 1
		}
		chunk = next
	}
	return min(work, budget)
}

// fuzzServeRank sends one request to h through ServeHTTP, so a panic in
// the handler or a ranking worker fails the fuzz target instead of
// being recovered by net/http, and checks the reply is a JSON object.
func fuzzServeRank(t *testing.T, h http.Handler, method, route string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, route, bytes.NewReader(body)))
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
		t.Fatalf("%s %s %s: body is not a JSON object: %v (%s)", method, route, body, err, rec.Body)
	}
	return rec.Code, rec.Body.Bytes()
}

// checkFuzzRanking fails unless every entry of a ranking is finite.
func checkFuzzRanking(t *testing.T, body []byte, res *RankResult) {
	t.Helper()
	for _, e := range res.Top {
		for _, x := range []float64{e.Estimate, e.Lower, e.Upper} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("request %s: ranking carries non-finite entry %+v", body, e)
			}
		}
	}
}

func FuzzRankRequest(f *testing.F) {
	for _, seed := range []string{
		// The golden rank bodies (goldenpin_test.go), verbatim and with a
		// total budget small enough to run under the fuzz bound.
		`{"k":5,"seed":42,"initial_steps":256,"sync":true}`,
		`{"k":5,"seed":42,"initial_steps":256,"sync":true,"measure":"coverage"}`,
		`{"k":5,"seed":42,"initial_steps":256,"sync":true,"total_budget":16384}`,
		`{"k":5,"seed":42,"initial_steps":256,"sync":true,"measure":"coverage","total_budget":16384}`,
		`{"k":3,"seed":1,"measure":"kpath","measure_k":3,"total_budget":8192,"max_rounds":3}`,
		`{"k":5,"seed":7,"adaptive":true,"epsilon":0.05,"total_budget":8192,"sync":false}`,
		`{"k":4,"seed":3,"estimator":"chain-avg","max_candidates":10,"total_budget":4096,"concurrency":3}`,
		// A large confidence once made job payloads unencodable.
		`{"k":5,"seed":1,"sync":true,"confidence":1e200,"total_budget":8192}`,
		`{"k":5,"seed":1,"sync":false,"max_rounds":2,"confidence":1e200,"total_budget":8192}`,
		`{"k":2,"total_budget":1,"sync":true}`,
		`{"k":5,"growth":0.5,"total_budget":4096}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	st := New(Config{})
	f.Cleanup(st.Close)
	n := mustCreate(f, st, "karate", karateList(f)).Engine().Graph().N()
	h := NewServer(st, "")
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RankRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && rankWork(req, n) > fuzzRankWorkBound {
			t.Skip("more chain work than the fuzz bound")
		}
		code, reply := fuzzServeRank(t, h, http.MethodPost, "/graphs/karate/rank", body)
		switch code {
		case http.StatusOK:
			var res RankResult
			if err := json.Unmarshal(reply, &res); err != nil {
				t.Fatalf("request %s: decoding 200 reply: %v", body, err)
			}
			checkFuzzRanking(t, body, &res)
		case http.StatusAccepted:
			var created jobView
			if err := json.Unmarshal(reply, &created); err != nil {
				t.Fatalf("request %s: decoding 202 reply: %v", body, err)
			}
			for end := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
				code, reply := fuzzServeRank(t, h, http.MethodGet, "/jobs/"+created.ID, nil)
				if code != http.StatusOK {
					t.Fatalf("request %s: GET /jobs/%s: status %d body %s", body, created.ID, code, reply)
				}
				var view jobView
				if err := json.Unmarshal(reply, &view); err != nil {
					t.Fatalf("request %s: decoding job: %v", body, err)
				}
				if view.Status.Terminal() {
					if view.Result != nil {
						checkFuzzRanking(t, body, view.Result)
					}
					break
				}
				if time.Now().After(end) {
					t.Fatalf("request %s: job %s still %q", body, created.ID, view.Status)
				}
			}
			if code, reply := fuzzServeRank(t, h, http.MethodGet, "/jobs", nil); code != http.StatusOK {
				t.Fatalf("request %s: GET /jobs: status %d body %s", body, code, reply)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST /graphs/karate/rank %s: status %d body %s", body, code, reply)
		}
	})
}
