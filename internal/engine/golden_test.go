package engine

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"bcmh/internal/core"
	"bcmh/internal/graph"
)

// karateGoldenNX holds published exact betweenness values for Zachary's
// karate club under the networkx normalization 2/((n-1)(n-2)) over
// unordered pairs (e.g. networkx.betweenness_centrality on
// karate_club_graph, values widely reproduced in the literature).
// This repository normalizes by 1/(n(n-1)) over ordered pairs (Eq. 1),
// so repo = nx · (n-2)/n.
var karateGoldenNX = map[int]float64{
	0:  0.437635281385281,
	1:  0.053936688311688,
	2:  0.143656806156806,
	3:  0.011909271284271,
	5:  0.029987373737374,
	8:  0.055926827801828,
	11: 0, // leaf hanging off the instructor
	13: 0.045863395863396,
	19: 0.032475048100048,
	31: 0.138275613275613,
	32: 0.145247113997114,
	33: 0.304074975949976,
}

const karateGoldenTol = 1e-9

func repoFromNX(nx float64, n int) float64 {
	return nx * float64(n-2) / float64(n)
}

// TestGoldenKarateExactBC cross-checks exact Brandes betweenness on the
// bundled karate-club graph against the published values, through both
// the core.ExactBC facade and the engine's /exact HTTP path.
func TestGoldenKarateExactBC(t *testing.T) {
	g := graph.KarateClub()
	n := g.N()
	exact, err := core.ExactBC(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServerWithLabels(e, nil))
	defer srv.Close()
	for v, nx := range karateGoldenNX {
		want := repoFromNX(nx, n)
		if diff := math.Abs(exact[v] - want); diff > karateGoldenTol {
			t.Errorf("core.ExactBC: vertex %d = %.12f, published %.12f (diff %g)", v, exact[v], want, diff)
		}
		var resp ExactResponse
		if code := getJSON(t, fmt.Sprintf("%s/exact/%d", srv.URL, v), &resp); code != 200 {
			t.Fatalf("GET /exact/%d: status %d", v, code)
		}
		if diff := math.Abs(resp.BC - want); diff > karateGoldenTol {
			t.Errorf("engine /exact: vertex %d = %.12f, published %.12f (diff %g)", v, resp.BC, want, diff)
		}
		// The two exact paths must agree bit-for-bit is too strict
		// (different float summation orders); within tolerance they
		// must match each other too.
		if diff := math.Abs(resp.BC - exact[v]); diff > karateGoldenTol {
			t.Errorf("vertex %d: engine %.12f vs core %.12f", v, resp.BC, exact[v])
		}
	}
	// Sanity: the instructor (0) and administrator (33) dominate, in
	// that order — the well-known karate-club ranking.
	top, second := -1, -1
	for v := range exact {
		switch {
		case top < 0 || exact[v] > exact[top]:
			second, top = top, v
		case second < 0 || exact[v] > exact[second]:
			second = v
		}
	}
	if top != 0 || second != 33 {
		t.Errorf("karate top-2 ranking = (%d, %d), want (0, 33)", top, second)
	}
}

// TestGoldenKarateExactOf pins core.ExactBCOf (the single-vertex exact
// path the engine's μ-cache mirrors) to the same published values.
func TestGoldenKarateExactOf(t *testing.T) {
	g := graph.KarateClub()
	for _, v := range []int{0, 32, 33} {
		got, err := core.ExactBCOf(g, v)
		if err != nil {
			t.Fatal(err)
		}
		want := repoFromNX(karateGoldenNX[v], g.N())
		if math.Abs(got-want) > karateGoldenTol {
			t.Errorf("ExactBCOf(%d) = %.12f, published %.12f", v, got, want)
		}
	}
}
