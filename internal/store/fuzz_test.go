package store

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bcmh/internal/engine"
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

// fuzzServe sends one request to h through ServeHTTP, so a panic in the
// handler or a worker fails the fuzz target instead of being recovered
// by net/http, and checks the reply is a JSON object.
func fuzzServe(t *testing.T, h http.Handler, method, route string, body []byte) (int, []byte) {
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
	h := NewServerWithOptions(st, ServerOptions{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RankRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && rankWork(req, n) > fuzzRankWorkBound {
			t.Skip("more chain work than the fuzz bound")
		}
		code, reply := fuzzServe(t, h, http.MethodPost, "/graphs/karate/rank", body)
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
				code, reply := fuzzServe(t, h, http.MethodGet, "/jobs/"+created.ID, nil)
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
			if code, reply := fuzzServe(t, h, http.MethodGet, "/jobs", nil); code != http.StatusOK {
				t.Fatalf("request %s: GET /jobs: status %d body %s", body, code, reply)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST /graphs/karate/rank %s: status %d body %s", body, code, reply)
		}
	})
}

// pinnedStatus holds the success status of the mutation routes and the
// error statuses README's table pins.
var pinnedStatus = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusMethodNotAllowed:      true,
	http.StatusConflict:              true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
	engine.StatusClientClosedRequest: true,
	http.StatusServiceUnavailable:    true,
}

// freshKarate returns the handler of a new non-durable store holding
// one karate session, so every fuzz input mutates the same graph.
func freshKarate(t *testing.T) http.Handler {
	t.Helper()
	st := New(Config{})
	t.Cleanup(st.Close)
	mustCreate(t, st, "karate", karateList(t))
	return NewServerWithOptions(st, ServerOptions{})
}

// checkKarateServes fails unless the karate session answers at version
// want and still estimates a vertex, which it cannot once a batch has
// disconnected the graph.
func checkKarateServes(t *testing.T, h http.Handler, body []byte, want uint64) {
	t.Helper()
	code, reply := fuzzServe(t, h, http.MethodGet, "/graphs/karate", nil)
	var info Info
	if code != http.StatusOK || json.Unmarshal(reply, &info) != nil || info.Version != want {
		t.Fatalf("request %q: GET /graphs/karate: status %d body %s, want 200 at version %d", body, code, reply, want)
	}
	if code, reply := fuzzServe(t, h, http.MethodPost, "/graphs/karate/estimate", []byte(`{"vertex":0,"steps":64,"seed":1}`)); code != http.StatusOK {
		t.Fatalf("request %q: estimate after it: status %d body %s", body, code, reply)
	}
}

func FuzzMutateRequest(f *testing.F) {
	// The bodies of the PATCH tests (mutate_test.go, stream_test.go).
	for _, seed := range []string{
		`{"edits":[{"op":"add","u":0,"v":6}],"if_version":5}`,
		`{"edits":[{"op":"add","u":0,"v":6}],"if_version":0}`,
		`{"edits":[{"op":"remove","u":0,"v":1},{"op":"remove","u":6,"v":7}]}`,
		`{"edits":[{"op":"add","u":0,"v":99}]}`,
		`{"edits":[{"op":"toggle","u":0,"v":1}]}`,
		`{}`,
		`{"edits":[{"op":"remove","u":0,"v":5}]}`,
		`{"edits":[{"op":"add","u":0,"v":1}]}`,
		`{"edits":[{"op":"add","u":31,"v":90},{"op":"add","u":465,"v":467}],"if_version":0}`,
		`{"edits":[{"op":"add","u":101,"v":102}]}`,
		`{"edits":[{"op":"add","u":12,"v":21},{"op":"remove","u":10,"v":11}]}`,
		`{"edits":[{"op":"add","u":20,"v":45},{"op":"add","u":3,"v":60},{"op":"remove","u":9,"v":18}]}`,
		`{"edits":[{"op":"add","u":9,"v":18,"w":2}]}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := freshKarate(t)
		code, reply := fuzzServe(t, h, http.MethodPatch, "/graphs/karate/edges", body)
		if !pinnedStatus[code] {
			t.Fatalf("PATCH /graphs/karate/edges %q: status %d body %s", body, code, reply)
		}
		applied := uint64(0)
		if code == http.StatusOK {
			applied = 1
		}
		checkKarateServes(t, h, body, applied)
	})
}

func FuzzStreamRequest(f *testing.F) {
	// The bodies of the stream tests (stream_test.go), whole and as
	// single lines, plus a broken framing.
	lines := []string{
		`{"edits":[{"op":"add","u":0,"v":12}]}`,
		`{"edits":[{"op":"add","u":3,"v":15},{"op":"remove","u":0,"v":12}]}`,
		`{"edits":[{"op":"add","u":9,"v":18}]}`,
		`{"edits":[{"op":"remove","u":0,"v":64}]}`,
		`{"edits":[{"op":"add","u":1,"v":62}],"if_version":0}`,
		`{"edits":[{"op":"remove","u":27,"v":28},{"op":"add","u":66,"v":69},{"op":"add","u":5,"v":50}]}`,
	}
	f.Add([]byte(strings.Join([]string{lines[0], lines[0], lines[1]}, "\n")))
	f.Add([]byte(strings.Join(lines, "\n")))
	for _, l := range lines {
		f.Add([]byte(l))
	}
	f.Add([]byte(lines[0] + "\n{not json\n" + lines[1]))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := freshKarate(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs/karate/stream", bytes.NewReader(body)))
		// The session exists, so the stream always starts: every batch
		// and framing error is reported on its own line.
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /graphs/karate/stream %q: status %d body %s", body, rec.Code, rec.Body)
		}
		dec := json.NewDecoder(rec.Body)
		var summary *StreamSummary
		seq, applied := 0, 0
		for dec.More() {
			var obj map[string]json.RawMessage
			if err := dec.Decode(&obj); err != nil {
				t.Fatalf("stream %q: line %d is not a JSON object: %v", body, seq, err)
			}
			raw, _ := json.Marshal(obj)
			if summary != nil {
				t.Fatalf("stream %q: line after the summary: %s", body, raw)
			}
			if _, ok := obj["done"]; ok {
				summary = new(StreamSummary)
				if err := json.Unmarshal(raw, summary); err != nil {
					t.Fatalf("stream %q: summary %s: %v", body, raw, err)
				}
				continue
			}
			var line StreamLine
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatalf("stream %q: result line %s: %v", body, raw, err)
			}
			if line.Seq != seq {
				t.Fatalf("stream %q: result line %d carries seq %d", body, seq, line.Seq)
			}
			if line.Applied {
				applied++
			}
			seq++
		}
		if summary == nil || !summary.Done || summary.Applied+summary.Rejected != seq || summary.Applied != applied {
			t.Fatalf("stream %q: summary %+v after %d result lines (%d applied)", body, summary, seq, applied)
		}
		checkKarateServes(t, h, body, uint64(applied))
	})
}
