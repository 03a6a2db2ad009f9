package store

// Dynamic graphs: every edit batch goes through one pipeline,
// Store.Mutate. PATCH /graphs/{id}/edges sends one batch; POST
// /graphs/{id}/stream (stream.go) is NDJSON framing of the same call,
// one batch per line. A batch costs O(batch) plus cache bookkeeping:
//
//   - graph.ApplyEditsOverlay absorbs it into a copy-on-write delta
//     overlay over the shared base CSR, one version ahead;
//   - connectivity is vetted per removed pair (graph.PairConnected,
//     bidirectional BFS) — additions cannot disconnect, and a batch
//     whose every removal leaves its endpoints connected in the result
//     leaves the whole graph connected (any old path reroutes through
//     the removals' replacement paths). A batch that would disconnect
//     the graph, which the estimators cannot serve, is rejected with
//     400, naming the removed edge by label, and changes nothing;
//   - the WAL sees exactly one record per batch before the batch
//     becomes visible (the version advances one step per batch
//     regardless of its size); under FsyncInterval a sustained stream
//     group-commits into a handful of fsyncs per second;
//   - engine.SwapGraph installs the result atomically and carries the
//     buffer pool and the unaffected μ-cache entries across the
//     version bump, with the affected set answered by an amortized
//     block-forest tracker (graph.AffectedTracker: sound, possibly
//     coarser than the exact block rule after many edits in one
//     region);
//   - once the overlay outgrows OverlayCompactEdits (or a degree-
//     weighted fraction of the base, see graph.ShouldCompactOverlay)
//     a background goroutine folds it into a fresh CSR and re-anchors
//     the meanwhile-advanced lineage onto it (graph.RebaseCompacted),
//     so mutations never pause for compaction.
//
// Estimates in flight when a batch lands keep running on their
// captured snapshot and return the pre-mutation answer bit-
// identically; the next request sees the new graph, and the session's
// /stats and Info report the bumped version. Ranking jobs follow their
// on_mutate policy: "finish" (default) completes on the snapshot the
// job started on, "cancel" aborts the job with a versioned cause.
// Batches are validated as a whole and applied atomically; an
// if_version precondition makes read-modify-write loops safe (409 on
// mismatch).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"bcmh/internal/engine"
	"bcmh/internal/graph"
)

// MaxMutationEdits caps the edit count of one batch, mirroring the
// other per-request guards (engine.MaxBatchTargets et al.).
const MaxMutationEdits = 4096

// OverlayCompactEdits is the overlay-size threshold past which a
// session's mutated graph is folded back into a flat CSR in the
// background. Compaction also triggers when the overlay's touched
// adjacency outweighs a fraction of the base CSR (see
// graph.ShouldCompactOverlay), whichever comes first.
const OverlayCompactEdits = 4096

// EditRequest is one edge edit of a mutation batch, addressed by input
// labels like every other vertex in the session API. W is the weight
// of an added edge on weighted graphs (0 means 1).
type EditRequest struct {
	Op string  `json:"op"` // "add" | "remove"
	U  int64   `json:"u"`
	V  int64   `json:"v"`
	W  float64 `json:"w,omitempty"`
}

// MutateRequest is the JSON body of PATCH /graphs/{id}/edges and one
// NDJSON line of POST /graphs/{id}/stream.
type MutateRequest struct {
	Edits []EditRequest `json:"edits"`
	// IfVersion, when present, is a precondition: the batch applies
	// only if the session's graph is still at exactly this version
	// (409 otherwise). Absent means apply unconditionally.
	IfVersion *uint64 `json:"if_version,omitempty"`
}

// MutateResponse is the JSON reply of PATCH /graphs/{id}/edges.
type MutateResponse struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	// Changed lists the labels whose adjacency changed.
	Changed []int64 `json:"changed"`
	// MuRetained/MuInvalidated report the μ-cache retention outcome of
	// this batch's swap.
	MuRetained    int   `json:"mu_retained"`
	MuInvalidated int   `json:"mu_invalidated"`
	Bytes         int64 `json:"bytes"`
}

// MutateOutcome is the library-level result of Store.Mutate.
type MutateOutcome struct {
	Info    Info
	Added   int
	Removed int
	// Changed lists the engine vertex ids whose adjacency changed.
	Changed []int
	Swap    engine.SwapReport
}

// vertexOfLabel resolves an input label to an engine vertex id,
// building the reverse table on first use (the label table is
// immutable — mutations keep vertex ids stable).
func (s *Session) vertexOfLabel(label int64) (int, error) {
	if s.labels == nil {
		v := int(label)
		if v < 0 || int64(v) != label || v >= s.eng.Graph().N() {
			return 0, fmt.Errorf("store: %w %d", engine.ErrUnknownVertex, label)
		}
		return v, nil
	}
	s.byLabelOnce.Do(func() {
		m := make(map[int64]int, len(s.labels))
		for v, l := range s.labels {
			m[l] = v
		}
		s.byLabel = m
	})
	v, ok := s.byLabel[label]
	if !ok {
		return 0, fmt.Errorf("store: %w label %d (dropped with a smaller component, or absent from the input)", engine.ErrUnknownVertex, label)
	}
	return v, nil
}

// labelFor is vertexOfLabel's inverse, for responses.
func (s *Session) labelFor(v int) int64 {
	if s.labels == nil {
		return int64(v)
	}
	return s.labels[v]
}

// editsOfRequest translates a MutateRequest's label-addressed edits to
// engine vertex ids.
func (s *Session) editsOfRequest(req *MutateRequest) ([]graph.Edit, error) {
	edits := make([]graph.Edit, len(req.Edits))
	for i, e := range req.Edits {
		var op graph.EditOp
		switch e.Op {
		case graph.EditAdd.String():
			op = graph.EditAdd
		case graph.EditRemove.String():
			op = graph.EditRemove
		default:
			return nil, fmt.Errorf("edit %d: unknown op %q (want %q or %q)", i, e.Op, graph.EditAdd, graph.EditRemove)
		}
		u, err := s.vertexOfLabel(e.U)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
		v, err := s.vertexOfLabel(e.V)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
		edits[i] = graph.Edit{Op: op, U: u, V: v, W: e.W}
	}
	return edits, nil
}

// mutationSignal returns a channel closed at the next mutation.
// Watchers must re-check the version after subscribing (a mutation may
// have landed between their snapshot and the subscription).
func (s *Session) mutationSignal() <-chan struct{} {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	if s.verCh == nil {
		s.verCh = make(chan struct{})
	}
	return s.verCh
}

// signalMutation wakes every watcher of the previous signal channel.
func (s *Session) signalMutation() {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	if s.verCh != nil {
		close(s.verCh)
		s.verCh = nil
	}
}

// Mutate applies an edit batch (engine vertex ids) to sess's graph:
// precondition check, overlay merge, per-removal connectivity and
// budget validation, the WAL record, the atomic engine swap, budget
// re-accounting, the mutation broadcast for on_mutate=cancel jobs, and
// background compaction when due. Batches on one session are
// serialized; concurrent estimates are never blocked (they run on
// snapshots).
func (st *Store) Mutate(sess *Session, edits []graph.Edit, ifVersion *uint64) (MutateOutcome, error) {
	if len(edits) == 0 {
		return MutateOutcome{}, fmt.Errorf("store: empty edit batch")
	}
	if len(edits) > MaxMutationEdits {
		return MutateOutcome{}, fmt.Errorf("store: batch of %d edits exceeds the limit %d", len(edits), MaxMutationEdits)
	}
	sess.mutMtx.Lock()
	defer sess.mutMtx.Unlock()
	if sess.Closed() {
		return MutateOutcome{}, ErrSessionClosed
	}
	if deg, cause := sess.Degraded(); deg {
		return MutateOutcome{}, fmt.Errorf("%w: %v", ErrDegraded, cause)
	}
	cur := sess.eng.Graph()
	if ifVersion != nil && *ifVersion != cur.Version() {
		return MutateOutcome{}, fmt.Errorf("%w: if_version %d, session %q is at version %d",
			ErrVersionConflict, *ifVersion, sess.id, cur.Version())
	}
	next, rep, err := graph.ApplyEditsOverlay(cur, edits)
	if err != nil {
		// Per-edge rejections carry engine vertex ids; translate them
		// back to the labels the client actually sent.
		var ee *graph.EditError
		if errors.As(err, &ee) {
			return MutateOutcome{}, fmt.Errorf("store: edge (%d,%d): %s", sess.labelFor(ee.U), sess.labelFor(ee.V), ee.Reason)
		}
		return MutateOutcome{}, err
	}
	for _, e := range edits {
		if e.Op == graph.EditRemove && !graph.PairConnected(next, e.U, e.V) {
			return MutateOutcome{}, fmt.Errorf("store: removing edge (%d,%d) would disconnect the graph (the estimators require a connected graph); batch rejected",
				sess.labelFor(e.U), sess.labelFor(e.V))
		}
	}
	newCost := sessionCost(next.N(), next.M())
	if newCost > st.cfg.MaxBytes {
		return MutateOutcome{}, fmt.Errorf("%w: mutated session %q needs ~%d bytes, budget is %d",
			ErrTooLarge, sess.id, newCost, st.cfg.MaxBytes)
	}
	// Write-ahead: the batch must be durably accepted before it becomes
	// visible in memory — a swap the WAL never recorded would silently
	// roll back at the next restart. A WAL failure degrades the session
	// (read-only from here on) and rejects this batch; the graph the
	// clients see still matches the disk.
	if sess.dur != nil {
		if err := sess.dur.Append(cur.Version(), next.Version(), edits); err != nil {
			sess.degrade(err)
			return MutateOutcome{}, fmt.Errorf("%w: %v", ErrDegraded, err)
		}
	}
	swap, err := sess.eng.SwapGraph(next, rep.Pairs)
	if err != nil {
		return MutateOutcome{}, err
	}
	st.recost(sess, newCost)
	sess.mutations.Add(1)
	sess.signalMutation()
	st.maybeCompactOverlay(sess, next)
	st.maybeCompact(sess)
	return MutateOutcome{
		Info:    sess.info(),
		Added:   rep.Added,
		Removed: rep.Removed,
		Changed: rep.Changed,
		Swap:    swap,
	}, nil
}

// maybeCompactOverlay folds an outgrown overlay back into a flat CSR.
// Called with the session's mutation lock held; the O(n+m) fold runs in
// a goroutine off the lock, concurrent with further batches, and
// catches up with whatever landed meanwhile via graph.RebaseCompacted —
// so compaction never blocks mutations. At most one compaction runs per
// session (compacting CAS).
func (st *Store) maybeCompactOverlay(sess *Session, g *graph.Graph) {
	if !g.ShouldCompactOverlay(OverlayCompactEdits) || !sess.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		c := g.Compact() // the heavy O(n+m) part, off every lock
		sess.mutMtx.Lock()
		if sess.Closed() {
			sess.mutMtx.Unlock()
			sess.compacting.Store(false)
			return
		}
		if rebased, ok := graph.RebaseCompacted(c, g, sess.eng.Graph()); ok {
			_ = sess.eng.InstallCompacted(rebased)
		}
		cur := sess.eng.Graph()
		sess.mutMtx.Unlock()
		sess.compacting.Store(false)
		// Batches that landed during the fold survive as a rebased
		// residue; run another round for them rather than waiting for
		// the next batch (which may never come). Each round folds
		// everything up to its snapshot, so this converges as soon as
		// the batches pause.
		st.maybeCompactOverlay(sess, cur)
	}()
}

// maybeCompact kicks off a background compaction when sess's WAL has
// outgrown the threshold. Called with the session's mutation lock held:
// the rotation (cheap — close, rename, reopen) happens here, under the
// lock, so the graph version captured right after covers every record
// in the rotated file; the expensive part (snapshot encode + atomic
// write) runs in a goroutine off the lock, concurrent with new appends
// into the fresh WAL.
func (st *Store) maybeCompact(sess *Session) {
	dl := sess.dur
	if dl == nil || !dl.ShouldCompact() || !dl.StartCompacting() {
		return
	}
	if err := dl.Rotate(); err != nil {
		// Rotate already marked the log failed; the session degrades on
		// the next append (or via the failure hook).
		dl.EndCompacting()
		return
	}
	g := sess.eng.Graph() // covers every rotated record: we hold mutMtx
	labels := sess.labels
	go func() {
		defer dl.EndCompacting()
		_ = dl.FinishCompact(g, labels) // failure degrades via the hook
	}()
}

// mutateStatus maps mutation-path errors onto pinned statuses: version
// conflicts 409, unknown labels 404, over-budget 413, closed sessions
// 503, malformed/rejected batches 400.
func mutateStatus(err error) int {
	switch {
	case errors.Is(err, ErrVersionConflict):
		return http.StatusConflict
	case errors.Is(err, engine.ErrUnknownVertex):
		return http.StatusNotFound
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrSessionClosed), errors.Is(err, ErrStoreClosed), errors.Is(err, ErrDegraded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// handleMutate serves PATCH /graphs/{id}/edges.
func (s *storeServer) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		engine.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %v", err))
		return
	}
	sess, release, err := s.st.Acquire(r.PathValue("id"))
	if err != nil {
		engine.WriteError(w, storeStatus(err), err)
		return
	}
	defer release()
	edits, err := sess.editsOfRequest(&req)
	if err != nil {
		engine.WriteError(w, mutateStatus(err), err)
		return
	}
	out, err := s.st.Mutate(sess, edits, req.IfVersion)
	if err != nil {
		engine.WriteError(w, mutateStatus(err), err)
		return
	}
	changed := make([]int64, len(out.Changed))
	for i, v := range out.Changed {
		changed[i] = sess.labelFor(v)
	}
	engine.WriteJSON(w, http.StatusOK, MutateResponse{
		ID:            out.Info.ID,
		Version:       out.Info.Version,
		N:             out.Info.N,
		M:             out.Info.M,
		Added:         out.Added,
		Removed:       out.Removed,
		Changed:       changed,
		MuRetained:    out.Swap.MuRetained,
		MuInvalidated: out.Swap.MuInvalidated,
		Bytes:         out.Info.Bytes,
	})
}
