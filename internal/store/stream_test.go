package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bcmh/internal/durable"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
)

// TestStreamBatchFastPath pins the library-level contract of
// Store.Mutate, the one mutation pipeline: versions advance one step
// per batch, the engine's buffer pool is the same object throughout,
// the serving graph is an overlay until compaction folds it, rejected
// batches change nothing, and estimates on the mutated graph are
// bit-identical to a from-scratch engine over the same logical graph.
// runBC runs one bc chain through mcmc.Run and returns that chain's
// Result.
func runBC(g *graph.Graph, r int, cfg mcmc.Config, seed uint64, pool *mcmc.BufferPool) (mcmc.Result, error) {
	m, err := mcmc.Run(context.Background(), g, mcmc.BC(r), cfg, seed, 1, pool)
	return m.Combined, err
}

func TestStreamBatchFastPath(t *testing.T) {
	st := newStore(Config{})
	defer st.Close()
	sess, err := st.CreateFromGraph("s", gridWithPendantRing(12, 12, 8), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.Engine()
	pool := eng.Pool()

	out, err := st.Mutate(sess, []graph.Edit{{Op: graph.EditAdd, U: 13, V: 40}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Info.Version != 1 || out.Added != 1 {
		t.Fatalf("first batch outcome %+v", out)
	}
	if eng.Pool() != pool {
		t.Fatal("a batch replaced the buffer pool")
	}
	if !eng.Graph().HasOverlay() {
		t.Fatal("mutated graph should carry an overlay")
	}

	// Precondition conflict and disconnecting removal change nothing.
	v9 := uint64(9)
	if _, err := st.Mutate(sess, []graph.Edit{{Op: graph.EditAdd, U: 0, V: 27}}, &v9); err == nil {
		t.Fatal("stale if_version accepted")
	}
	bridgeU, bridgeV := 0, 144 // the grid-ring bridge
	if _, err := st.Mutate(sess, []graph.Edit{{Op: graph.EditRemove, U: bridgeU, V: bridgeV}}, nil); err == nil {
		t.Fatal("disconnecting removal accepted")
	}
	if sess.Version() != 1 || sess.Mutations() != 1 {
		t.Fatalf("rejected batches perturbed the session: version %d, mutations %d", sess.Version(), sess.Mutations())
	}

	// A removal that keeps the graph connected passes the pair check.
	if _, err := st.Mutate(sess, []graph.Edit{{Op: graph.EditRemove, U: 13, V: 40}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Mutate(sess, []graph.Edit{
		{Op: graph.EditAdd, U: 5, V: 30},
		{Op: graph.EditAdd, U: 77, V: 100},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if sess.Version() != 3 {
		t.Fatalf("version = %d, want 3", sess.Version())
	}

	// Bit-identity against a from-scratch engine on the compacted graph.
	cfg := mcmc.DefaultConfig(2000)
	const target, seed = 70, 17
	got, err := runBC(eng.Graph(), target, cfg, seed, eng.Pool())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runBC(eng.Graph().Compact(), target, cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed estimate %+v != compacted reference %+v", got, want)
	}
}

// TestHTTPStreamEndpoint drives POST /graphs/{id}/stream end to end:
// NDJSON batches in (one of them invalid), per-batch result lines and a
// trailing summary out, session state reflecting only the applied
// batches.
func TestHTTPStreamEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "ring", graph.Cycle(24))

	body := strings.Join([]string{
		`{"edits":[{"op":"add","u":0,"v":12}]}`,
		`{"edits":[{"op":"add","u":0,"v":12}]}`, // duplicate: rejected
		`{"edits":[{"op":"add","u":3,"v":15},{"op":"remove","u":0,"v":12}]}`,
	}, "\n")
	resp, err := http.Post(srv.URL+"/graphs/ring/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	// Superset of StreamLine and StreamSummary fields.
	type anyLine struct {
		Seq      int    `json:"seq"`
		Applied  any    `json:"applied"` // bool on result lines, int on the summary
		Version  uint64 `json:"version"`
		M        int    `json:"m"`
		Added    int    `json:"added"`
		Removed  int    `json:"removed"`
		Error    string `json:"error"`
		Done     bool   `json:"done"`
		Rejected int    `json:"rejected"`
	}
	var lines []anyLine
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var l anyLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("decoding response line %d: %v", len(lines), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d response lines, want 3 results + 1 summary", len(lines))
	}
	if l := lines[0]; l.Applied != true || l.Version != 1 || l.Added != 1 || l.M != 25 {
		t.Fatalf("line 0: %+v", l)
	}
	if l := lines[1]; l.Applied == true || l.Error == "" || !strings.Contains(l.Error, "(0,12)") {
		t.Fatalf("line 1 should reject the duplicate with labeled endpoints: %+v", l)
	}
	if l := lines[2]; l.Applied != true || l.Version != 2 || l.Added != 1 || l.Removed != 1 {
		t.Fatalf("line 2: %+v", l)
	}
	sum := lines[3]
	if !sum.Done || sum.Applied != float64(2) || sum.Rejected != 1 || sum.Version != 2 {
		t.Fatalf("summary: %+v", sum)
	}

	var info Info
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/ring", nil, &info); code != http.StatusOK ||
		info.Version != 2 || info.Mutations != 2 || info.M != 25 {
		t.Fatalf("post-stream info: %d %+v", code, info)
	}
}

// TestPatchAndStreamAgree sends one batch sequence through PATCH to
// one session and through /stream to another session of the same
// graph. Both routes are framings of Store.Mutate, so after every batch
// the replies agree on version, n, m, added, removed and μ retention,
// both sessions serve the same adjacency, PATCH's changed labels are
// exactly the vertices whose adjacency moved, and same-seed estimates
// and exact values are bit-identical. Rejections agree too: a bridge
// removal is refused on both routes with the same labeled message, and
// a stale if_version on both.
func TestPatchAndStreamAgree(t *testing.T) {
	st, srv := newTestServer(t, Config{}, "")
	g := gridWithPendantRing(8, 8, 6) // grid 0..63, ring 64..69, bridge {0,64}
	uploadGraph(t, srv, "patch", g)
	uploadGraph(t, srv, "stream", g)
	add := func(u, v int64) EditRequest { return EditRequest{Op: "add", U: u, V: v} }
	remove := func(u, v int64) EditRequest { return EditRequest{Op: "remove", U: u, V: v} }
	stale := uint64(0)
	batches := []struct {
		req    MutateRequest
		reject string // substring of the expected rejection; "" = applies
	}{
		{req: MutateRequest{Edits: []EditRequest{add(9, 18)}}},
		{req: MutateRequest{Edits: []EditRequest{add(12, 21), remove(10, 11)}}},
		{req: MutateRequest{Edits: []EditRequest{remove(0, 64)}}, reject: "would disconnect"},
		{req: MutateRequest{Edits: []EditRequest{add(20, 45), add(3, 60), remove(9, 18)}}},
		{req: MutateRequest{Edits: []EditRequest{add(1, 62)}, IfVersion: &stale}, reject: "if_version"},
		{req: MutateRequest{Edits: []EditRequest{remove(27, 28), add(66, 69), add(5, 50)}}},
	}
	probes := []int64{66, 27, 9, 40}
	graphOf := func(id string) *graph.Graph {
		sess, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return sess.Engine().Graph()
	}
	for i, b := range batches {
		// Warm the same μ entries on both sessions so retention has
		// something to carry or drop.
		for _, v := range probes[:2] {
			for _, id := range []string{"patch", "stream"} {
				var ex engine.ExactResponse
				if code := doJSON(t, http.MethodGet, fmt.Sprintf("%s/graphs/%s/exact/%d", srv.URL, id, v), nil, &ex); code != http.StatusOK {
					t.Fatalf("batch %d: exact %s/%d: status %d", i, id, v, code)
				}
			}
		}
		before := graphOf("stream")

		var pr struct {
			MutateResponse
			Error string `json:"error"`
		}
		code := doJSON(t, http.MethodPatch, srv.URL+"/graphs/patch/edges", b.req, &pr)
		line, err := json.Marshal(b.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/graphs/stream/stream", "application/x-ndjson", bytes.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		var sl StreamLine
		if err := json.NewDecoder(resp.Body).Decode(&sl); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		if b.reject != "" {
			if code == http.StatusOK || sl.Applied || !strings.Contains(pr.Error, b.reject) || !strings.Contains(sl.Error, b.reject) {
				t.Fatalf("batch %d: want both rejected with %q: PATCH %d %q, stream %+v", i, b.reject, code, pr.Error, sl)
			}
			// The version-conflict message names the session, so only
			// the disconnection messages can match byte for byte.
			if b.req.IfVersion == nil && pr.Error != sl.Error {
				t.Fatalf("batch %d: rejection messages differ: PATCH %q, stream %q", i, pr.Error, sl.Error)
			}
			if graphOf("stream").Version() != before.Version() || graphOf("patch").Version() != before.Version() {
				t.Fatalf("batch %d: rejected batch moved a session's version", i)
			}
			continue
		}
		if code != http.StatusOK || !sl.Applied {
			t.Fatalf("batch %d: PATCH %d %+v, stream %+v", i, code, pr, sl)
		}
		if pr.Version != sl.Version || pr.N != sl.N || pr.M != sl.M || pr.Added != sl.Added ||
			pr.Removed != sl.Removed || pr.MuRetained != sl.MuRetained || pr.MuInvalidated != sl.MuInvalidated {
			t.Fatalf("batch %d: replies differ: PATCH %+v, stream %+v", i, pr, sl)
		}
		after, patched := graphOf("stream"), graphOf("patch")
		sess, err := st.Get("stream")
		if err != nil {
			t.Fatal(err)
		}
		var moved []int64
		for v := 0; v < after.N(); v++ {
			if !slices.Equal(after.Neighbors(v), patched.Neighbors(v)) {
				t.Fatalf("batch %d: sessions disagree on the adjacency of vertex %d", i, v)
			}
			if !slices.Equal(after.Neighbors(v), before.Neighbors(v)) {
				moved = append(moved, sess.labelFor(v))
			}
		}
		changed := slices.Clone(pr.Changed)
		slices.Sort(changed)
		slices.Sort(moved)
		if !slices.Equal(changed, moved) {
			t.Fatalf("batch %d: PATCH changed %v, adjacency moved at %v", i, pr.Changed, moved)
		}

		for _, v := range probes {
			var ep, es engine.EstimateResponse
			req := engine.EstimateRequest{Vertex: v, Steps: 512, Seed: uint64(100 + i)}
			if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/patch/estimate", req, &ep); code != http.StatusOK {
				t.Fatalf("batch %d: estimate patch/%d: status %d", i, v, code)
			}
			if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/stream/estimate", req, &es); code != http.StatusOK {
				t.Fatalf("batch %d: estimate stream/%d: status %d", i, v, code)
			}
			if ep.Value != es.Value || ep.AcceptanceRate != es.AcceptanceRate || ep.PlannedSteps != es.PlannedSteps {
				t.Fatalf("batch %d: vertex %d estimates differ: PATCH %+v, stream %+v", i, v, ep, es)
			}
			var xp, xs engine.ExactResponse
			doJSON(t, http.MethodGet, fmt.Sprintf("%s/graphs/patch/exact/%d", srv.URL, v), nil, &xp)
			doJSON(t, http.MethodGet, fmt.Sprintf("%s/graphs/stream/exact/%d", srv.URL, v), nil, &xs)
			if xp.BC != xs.BC {
				t.Fatalf("batch %d: vertex %d exact values differ: %v vs %v", i, v, xp.BC, xs.BC)
			}
		}
	}
	if sp, ss := sessionStats(t, srv, "patch"), sessionStats(t, srv, "stream"); sp.Version != 4 || ss.Version != 4 {
		t.Fatalf("final versions %d/%d, want 4/4", sp.Version, ss.Version)
	}
}

// TestStreamOverlayCompaction streams enough batches into a small graph
// that the degree-weighted overlay threshold trips, then waits for the
// background fold: the serving graph loses its overlay without the
// version moving, and the stream keeps going on the compacted storage.
func TestStreamOverlayCompaction(t *testing.T) {
	st := newStore(Config{})
	defer st.Close()
	sess, err := st.CreateFromGraph("c", graph.Cycle(64), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.Engine()
	// Chords 0-2, 1-3, ...: each batch touches two more vertices, so
	// touched·8 > n trips after a handful of batches.
	nextChord := 0
	addChord := func() {
		for ; ; nextChord++ {
			if nextChord >= 64 {
				t.Fatal("chord supply exhausted before compaction converged")
			}
			u, v := nextChord, (nextChord+2)%64
			if eng.Graph().HasEdge(u, v) {
				continue
			}
			if _, err := st.Mutate(sess, []graph.Edit{{Op: graph.EditAdd, U: u, V: v}}, nil); err != nil {
				t.Fatal(err)
			}
			nextChord++
			return
		}
	}
	applied := 0
	for ; applied < 12; applied++ {
		addChord()
	}
	// Batches that land while a fold is in flight survive it as a
	// rebased residue; a residue below the threshold waits for the next
	// batch by design, so keep the stream trickling until a fold lands
	// with nothing racing it.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Graph().HasOverlay() {
		if time.Now().After(deadline) {
			t.Fatalf("overlay never compacted (%d edits pending)", eng.Graph().OverlayEdits())
		}
		if !sess.compacting.Load() && !eng.Graph().ShouldCompactOverlay(OverlayCompactEdits) {
			addChord()
			applied++
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
	if sess.Version() != uint64(applied) {
		t.Fatalf("version %d after %d applied batches (compaction must not move it)", sess.Version(), applied)
	}
	// Later batches chain off the compacted storage and stay exact.
	compacted := eng.Graph()
	if _, err := st.Mutate(sess, []graph.Edit{{Op: graph.EditAdd, U: 40, V: 50}}, nil); err != nil {
		t.Fatal(err)
	}
	if !graph.SameStorage(eng.Graph(), compacted) {
		t.Fatal("post-compaction batch did not chain off the compacted storage")
	}
	ms, err := eng.MuStatsContext(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mcmc.MuExact(eng.Graph().Compact(), 45)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ms.BC - ref.BC; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("post-compaction BC %v != reference %v", ms.BC, ref.BC)
	}
}

// TestStreamDurableRecovery: streamed batches are WAL-backed exactly
// like PATCH batches — after eviction the session rehydrates to the
// bit-identical graph (canonical binary image, version included).
func TestStreamDurableRecovery(t *testing.T) {
	st, _, _ := newDurableStore(t, Config{MaxSessions: 1})
	sess, err := st.CreateFromGraph("a", graph.KarateClub(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for u := 0; u < 34 && applied < 3; u++ {
		v := (u + 11) % 34
		if sess.Engine().Graph().HasEdge(u, v) {
			continue
		}
		if _, err := st.Mutate(sess, []graph.Edit{{Op: graph.EditAdd, U: u, V: v, W: 1}}, nil); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	want := graphBytes(t, sess.Engine().Graph().Compact())

	// A second session evicts the first (MaxSessions 1); Get rehydrates
	// it from snapshot + WAL.
	if _, err := st.CreateFromGraph("b", graph.Cycle(8), nil, false); err != nil {
		t.Fatal(err)
	}
	back, err := st.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if back == sess {
		t.Fatal("expected a rehydrated session, got the original")
	}
	if got := graphBytes(t, back.Engine().Graph()); !reflect.DeepEqual(got, want) {
		t.Fatal("rehydrated graph differs from the streamed lineage")
	}
	if back.Version() != 3 {
		t.Fatalf("rehydrated version = %d, want 3", back.Version())
	}
}

// TestStreamRandomizedProperty is the randomized acceptance sweep:
// generations of overlay batches interleaved with forced and background
// compactions and with estimates running concurrently on captured
// snapshots. Invariants: every in-flight estimate is bit-identical to
// an unpooled reference on its own snapshot (snapshot isolation plus
// overlay/compact traversal equivalence), and the final graph is
// bit-identical — as a canonical structure — to a from-scratch Builder
// rebuild of the surviving edge set.
func TestStreamRandomizedProperty(t *testing.T) {
	gens := 25
	if testing.Short() {
		gens = 8
	}
	st := newStore(Config{})
	defer st.Close()
	base := graph.BarabasiAlbert(300, 3, rng.New(5))
	sess, err := st.CreateFromGraph("p", base, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.Engine()
	n := eng.Graph().N()
	r := rng.New(99)
	cfg := mcmc.DefaultConfig(1500)

	// forceCompact folds the current overlay immediately (the background
	// path, minus the goroutine), exercising compaction at controlled
	// points between batches on top of whatever the automatic trigger
	// does on its own schedule.
	forceCompact := func() {
		sess.mutMtx.Lock()
		defer sess.mutMtx.Unlock()
		cur := eng.Graph()
		c := cur.Compact()
		if rebased, ok := graph.RebaseCompacted(c, cur, cur); ok {
			if err := eng.InstallCompacted(rebased); err != nil {
				t.Error(err)
			}
		}
	}

	type inflight struct {
		done chan struct{}
		got  mcmc.Result
		err  error
		want mcmc.Result
	}
	var pending []*inflight
	var chords [][2]int // removable: chords this test added
	for gen := 0; gen < gens; gen++ {
		// Launch an estimate on the pre-batch snapshot; it races the
		// batches and compactions that follow.
		snap := eng.Snapshot()
		target := r.Intn(n)
		seed := uint64(1000 + gen)
		ref, err := runBC(snap.Graph.Compact(), target, cfg, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		fl := &inflight{done: make(chan struct{}), want: ref}
		pending = append(pending, fl)
		go func() {
			defer close(fl.done)
			fl.got, fl.err = runBC(snap.Graph, target, cfg, seed, snap.Pool)
		}()

		// One batch of 1–3 additions, plus sometimes a removal of a
		// chord added earlier (always safe: the base graph is intact and
		// connected).
		var edits []graph.Edit
		adds := 1 + r.Intn(3)
		for len(edits) < adds {
			u, v := r.Intn(n), r.Intn(n)
			if u == v || eng.Graph().HasEdge(u, v) {
				continue
			}
			dup := false
			for _, e := range edits {
				if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			edits = append(edits, graph.Edit{Op: graph.EditAdd, U: u, V: v})
			chords = append(chords, [2]int{u, v})
		}
		// Only chords from earlier generations are removal candidates:
		// an add and a remove of the same edge in one batch is invalid.
		if old := len(chords) - adds; old > 4 && r.Intn(3) == 0 {
			i := r.Intn(old)
			c := chords[i]
			chords = append(chords[:i], chords[i+1:]...)
			edits = append(edits, graph.Edit{Op: graph.EditRemove, U: c[0], V: c[1]})
		}
		if _, err := st.Mutate(sess, edits, nil); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if gen%4 == 3 {
			forceCompact()
		}
	}
	for i, fl := range pending {
		<-fl.done
		if fl.err != nil {
			t.Fatalf("in-flight estimate %d: %v", i, fl.err)
		}
		if !reflect.DeepEqual(fl.got, fl.want) {
			t.Fatalf("in-flight estimate %d not snapshot-isolated: %+v vs %+v", i, fl.got, fl.want)
		}
	}

	// Final graph == from-scratch Builder rebuild of the edge set
	// (canonical adjacency: both sort neighbor lists).
	final := eng.Graph().Compact()
	b := graph.NewBuilder(n)
	base.ForEachEdge(func(u, v int, w float64) { b.AddEdge(u, v) })
	removed := make(map[[2]int]bool)
	finalEdges := 0
	final.ForEachEdge(func(u, v int, w float64) { finalEdges++ })
	for _, c := range chords {
		_ = removed
		b.AddEdge(c[0], c[1])
	}
	rebuilt := b.MustBuild()
	if rebuilt.N() != final.N() || rebuilt.M() != final.M() {
		t.Fatalf("rebuilt n/m = %d/%d, final %d/%d", rebuilt.N(), rebuilt.M(), final.N(), final.M())
	}
	type edge struct {
		u, v int
		w    float64
	}
	collect := func(g *graph.Graph) []edge {
		var out []edge
		g.ForEachEdge(func(u, v int, w float64) { out = append(out, edge{u, v, w}) })
		return out
	}
	if !reflect.DeepEqual(collect(final), collect(rebuilt)) {
		t.Fatal("final streamed graph differs structurally from the from-scratch rebuild")
	}
	// And the canonical structures estimate bit-identically.
	got, err := runBC(final, 7, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runBC(rebuilt, 7, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final estimate %+v != rebuilt estimate %+v", got, want)
	}
}

// compactGaugeFS wraps a durable FS and gauges how many snapshot
// writes are in flight at once: the count rises when a snapshot temp
// file is created and falls when it is renamed into place. FinishCompact
// is the only writer of snapshot temp files once a session exists, so
// the gauge exceeding one would mean two compactions overlapped.
type compactGaugeFS struct {
	durable.FS
	mu       sync.Mutex
	inFlight int
	maxSeen  int
	writes   int
}

func (g *compactGaugeFS) Create(path string) (durable.File, error) {
	if strings.HasSuffix(path, "snapshot.bcs.tmp") {
		g.mu.Lock()
		g.inFlight++
		g.writes++
		if g.inFlight > g.maxSeen {
			g.maxSeen = g.inFlight
		}
		g.mu.Unlock()
		// Hold the gauge up long enough for an illegal second compaction
		// to overlap, were one able to start.
		time.Sleep(2 * time.Millisecond)
	}
	return g.FS.Create(path)
}

func (g *compactGaugeFS) Rename(oldPath, newPath string) error {
	err := g.FS.Rename(oldPath, newPath)
	if strings.HasSuffix(oldPath, "snapshot.bcs.tmp") {
		g.mu.Lock()
		g.inFlight--
		g.mu.Unlock()
	}
	return err
}

// TestStreamWALRateCompactionSingleFlight pins the WAL growth-rate
// trigger end to end: a sustained stream compacts its WAL even with
// the absolute size threshold disabled, and no matter how hard the
// stream pushes, at most one compaction is ever in flight (the
// durable layer's compacting slot).
func TestStreamWALRateCompactionSingleFlight(t *testing.T) {
	gauge := &compactGaugeFS{FS: durable.OS}
	mgr, err := durable.NewManager(durable.Options{
		Dir: t.TempDir(), FS: gauge, Fsync: durable.FsyncNever,
		CompactBytes: -1,  // size trigger off: every fold below is the rate trigger
		CompactRate:  256, // 256 B/s — the stream outruns this instantly
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	st := New(Config{Durable: mgr})
	t.Cleanup(st.Close)
	sess, err := st.CreateFromGraph("s", graph.Cycle(64), nil, false)
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	// Toggle a chord, one WAL record per batch, spread over enough wall
	// clock that the growth-rate window becomes trusted more than once.
	deadline := time.Now().Add(400 * time.Millisecond)
	for i := 0; time.Now().Before(deadline) || i < 64; i++ {
		op := graph.EditAdd
		if i%2 == 1 {
			op = graph.EditRemove
		}
		if _, err := st.Mutate(sess, []graph.Edit{{Op: op, U: 0, V: 17}}, nil); err != nil {
			t.Fatalf("stream batch %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}

	// Drain the in-flight fold before reading the gauge.
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		gauge.mu.Lock()
		inFlight := gauge.inFlight
		gauge.mu.Unlock()
		if inFlight == 0 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("compaction never finished")
		}
	}

	gauge.mu.Lock()
	writes, maxSeen := gauge.writes, gauge.maxSeen
	gauge.mu.Unlock()
	// The session-create snapshot is write #1; anything beyond it is a
	// rate-triggered compaction.
	if writes < 2 {
		t.Fatalf("rate trigger never compacted: %d snapshot writes", writes)
	}
	if maxSeen > 1 {
		t.Fatalf("%d compactions in flight at once, want at most 1", maxSeen)
	}
	if deg, cause := sess.Degraded(); deg {
		t.Fatalf("streaming compaction degraded the session: %v", cause)
	}
	t.Logf("snapshot writes: %d (1 create + %d rate-triggered folds)", writes, writes-1)
}

// Mutations returns the number of edit batches applied to the session.
func (s *Session) Mutations() uint64 { return s.mutations.Load() }
