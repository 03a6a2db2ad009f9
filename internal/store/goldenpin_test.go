package store

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
)

// TestGoldenRankBCPayload pins the synchronous rank route's ranking
// payload for the default measure (bc), captured when bc rankings moved
// to shared source passes and re-pinned once when those passes moved to
// the fast kernels' pull-form backward pass (vertex 2's value moved in
// its last bit, onto the exact value rounded to float64): a rank
// request that does not name a measure must keep producing
// byte-identical Top entries. ElapsedMS is
// wall-clock, so the pin covers the re-marshaled Top array plus the
// deterministic scalar fields. Regenerate with GOLDEN_UPDATE=1 only for
// an intentional payload change.
func TestGoldenRankBCPayload(t *testing.T) {
	pinRankGolden(t, `{"k":5,"seed":42,"initial_steps":256,"sync":true}`, "rank_bc_golden.json")
}

// TestGoldenRankBCExact holds the bc fixture to Brandes: its 256-pass
// first batch sees all 34 sources, so each of its five entries is the
// exact betweenness, and its interval is that point.
func TestGoldenRankBCExact(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "rank_bc_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res RankResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	bc := brandes.BC(graph.KarateClub())
	if len(res.Top) != 5 {
		t.Fatalf("fixture has %d entries", len(res.Top))
	}
	for _, e := range res.Top {
		if want := bc[e.Vertex]; math.Abs(e.Estimate-want) > 1e-12*want || e.Lower != e.Estimate || e.Upper != e.Estimate {
			t.Fatalf("vertex %d: %v in [%v, %v], exact %v", e.Vertex, e.Estimate, e.Lower, e.Upper, want)
		}
	}
}

// TestGoldenRankCoveragePayload pins a rank job ranking by a non-bc
// measure, whose candidate chains run on measure evaluators. Captured
// before the chain entry points were merged into mcmc.Run.
func TestGoldenRankCoveragePayload(t *testing.T) {
	pinRankGolden(t, `{"k":5,"seed":42,"initial_steps":256,"sync":true,"measure":"coverage"}`, "rank_coverage_golden.json")
}

// pinRankGolden posts a synchronous rank request on karate and compares
// the reply, minus its wall-clock elapsed_ms, with testdata/<file>.
// With GOLDEN_UPDATE=1 it rewrites the fixture instead.
func pinRankGolden(t *testing.T, body, file string) {
	t.Helper()
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "karate", graph.KarateClub())

	resp, err := http.Post(srv.URL+"/graphs/karate/rank", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync rank: status %d body %s", resp.StatusCode, raw)
	}
	var res RankResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decoding rank result: %v", err)
	}
	res.ElapsedMS = 0 // wall clock; everything else is seed-deterministic
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", file)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote golden rank payload to %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("rank payload drifted from golden\n got: %s\nwant: %s", got, want)
	}
}
