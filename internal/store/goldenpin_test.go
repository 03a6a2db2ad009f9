package store

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"bcmh/internal/graph"
)

// TestGoldenRankBCPayload pins the synchronous rank route's ranking
// payload for the default measure (bc) to a fixture captured before the
// measure-generic redesign: a rank request that does not name a measure
// must keep producing byte-identical Top entries. ElapsedMS is
// wall-clock, so the pin covers the re-marshaled Top array plus the
// deterministic scalar fields. Regenerate with GOLDEN_UPDATE=1 only for
// an intentional payload change.
func TestGoldenRankBCPayload(t *testing.T) {
	pinRankGolden(t, `{"k":5,"seed":42,"initial_steps":256,"sync":true}`, "rank_bc_golden.json")
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
