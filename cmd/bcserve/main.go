// Command bcserve serves betweenness-centrality estimation over
// HTTP/JSON from a multi-tenant graph store: any number of graphs can
// be preloaded at startup (each becoming a pinned session) or uploaded,
// listed, and deleted at runtime through the /graphs management API,
// all sharing one bounded memory budget with LRU eviction of idle
// sessions.
//
// With -data-dir the store is durable: sessions persist as checksummed
// snapshots plus a mutation WAL, survive restarts (evicted sessions
// rehydrate from disk on first touch), and degrade to read-only —
// mutations 503, estimates keep serving — if the disk fails. -fsync
// picks the durability/latency trade-off (always | interval | never),
// -wal-compact-bytes the WAL size that triggers background compaction.
// See internal/durable and the README's Durability section.
//
//	bcserve -addr :8080                          # empty store, upload-only
//	bcserve -in net.txt                          # one graph, aliased to /estimate etc.
//	bcserve -in web=web.txt -in road=road.txt    # many named graphs
//	bcserve -data-dir /var/lib/bcmh              # durable store: survive restarts
//	bcserve rank -in net.txt -k 10               # offline top-k ranking (no server)
//	bcserve mutate -graph net -add 3,9 -remove 4,7   # edit a served graph in place
//
// Endpoints (see internal/store.NewServerWithOptions for the full reference):
//
//	POST   /graphs                     upload an edge list ({"id","edge_list"} or raw body + ?id=)
//	GET    /graphs                     list sessions and budget counters
//	GET    /graphs/{id}                one session's description
//	DELETE /graphs/{id}                drop a session (aborts its in-flight work)
//	PATCH  /graphs/{id}/edges          {"edits":[{"op":"add","u":3,"v":9}], "if_version": 2}
//	POST   /graphs/{id}/stream         NDJSON edit batches in, per-batch acks + summary out
//	POST   /graphs/{id}/estimate       {"vertex": 3, "epsilon": 0.05, "seed": 7}
//	POST   /graphs/{id}/estimate/batch {"targets": [3, 9, 3], "seed": 7}
//	GET    /graphs/{id}/exact/3
//	GET    /graphs/{id}/stats
//	POST   /graphs/{id}/rank           {"k": 10, "seed": 7} → 202 + job (or 200 inline)
//	GET    /jobs, GET /jobs/{id}, DELETE /jobs/{id}
//
// The single-graph routes of earlier versions (POST /estimate,
// POST /estimate/batch, GET /exact/{v}, GET /stats) remain as aliases
// for the default session — the first -in graph (or the one named by
// -default).
//
// Request vertices are the labels appearing in the input file (labels
// dropped with smaller components are rejected with an explanatory
// error). On SIGINT/SIGTERM the server drains: no new connections,
// in-flight requests get -drain to finish, then every session is
// closed, aborting whatever chains are still running — ranking jobs
// included, since they run under their session's lifecycle context.
//
// The `rank` subcommand runs the same progressive-refinement top-k
// ranker (internal/rank) directly on an edge-list file and prints the
// ranking — no server, ^C aborts cleanly:
//
//	bcserve rank -in net.txt -k 10 -seed 7
//	bcserve rank -in net.txt -k 5 -exact      # also print exact top-k + overlap
//	bcserve rank -url http://localhost:8080 -graph web -k 10   # remote: submit + poll the job API
//
// Remote subcommands retry transient failures when asked: -retries N
// re-sends on connection errors and 5xx responses (never 4xx) with
// exponential backoff and jitter, capped at -retry-max-wait per wait.
// For mutate, -retries requires -if-version — the version precondition
// is what makes a re-sent PATCH idempotent.
//
// The `mutate` subcommand is the dynamic-graph client: it PATCHes an
// edge-edit batch to a running server and prints the applied version,
// changed vertices, and μ-cache retention outcome. Vertices are input
// labels; -if-version makes read-modify-write loops safe (the server
// answers 409 on a stale precondition):
//
//	bcserve mutate -url http://localhost:8080 -graph web -add 3,9 -add 4,8,2.5 -remove 1,2
//	bcserve mutate -graph web -if-version 3 -remove 7,9
//
// The `stream` subcommand is mutate's bulk counterpart: it pipes an
// NDJSON file (or stdin) of edit batches — one PATCH-shaped request per
// line — to POST /graphs/{id}/stream, which applies each exactly as a
// PATCH would, printing one acknowledgement per batch as the server
// emits it and the stream totals at the end. Rejected batches are reported and the
// stream continues; the exit status is non-zero if any batch was
// rejected:
//
//	bcserve stream -graph web -in edits.ndjson
//	live-feed | bcserve stream -url http://localhost:8080 -graph web
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/durable"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/measure"
	"bcmh/internal/rank"
	"bcmh/internal/stats"
	"bcmh/internal/store"
)

// preload is one -in flag occurrence: "path" or "id=path".
type preload struct {
	id, path string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "rank" {
		if err := runRankCLI(os.Args[2:]); err != nil {
			log.Fatalf("bcserve rank: %v", err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "mutate" {
		if err := runMutateCLI(os.Args[2:]); err != nil {
			log.Fatalf("bcserve mutate: %v", err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "stream" {
		if err := runStreamCLI(os.Args[2:]); err != nil {
			log.Fatalf("bcserve stream: %v", err)
		}
		return
	}
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheSize   = flag.Int("cache", engine.DefaultCacheSize, "per-session completed-estimate LRU capacity (<0 disables)")
		maxBytes    = flag.Int64("max-bytes", store.DefaultMaxBytes, "graph store memory budget in (estimated) bytes")
		maxSessions = flag.Int("max-sessions", store.DefaultMaxSessions, "maximum resident graph sessions")
		defaultID   = flag.String("default", "", "session id the legacy single-graph routes alias (default: the first -in graph)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		maxBody     = flag.Int64("max-body", 64<<20, "request body size limit in bytes (bounds uploads)")
		maxRankJobs = flag.Int("max-rank-jobs", 0, "maximum concurrently running ranking jobs (0: default)")
		syncRankN   = flag.Int("rank-sync-n", 0, "graphs with at most this many vertices rank synchronously inside the request (0: only when the request asks)")
		dataDir     = flag.String("data-dir", "", "directory for durable session state (snapshot + WAL per graph; empty: in-memory only)")
		fsyncMode   = flag.String("fsync", "interval", `WAL fsync policy: "always", "interval" (group-commit), or "never"`)
		compactWAL  = flag.Int64("wal-compact-bytes", durable.DefaultCompactBytes, "WAL size that triggers background compaction into a fresh snapshot (<0: never)")
		compactRate = flag.Int64("wal-compact-rate", 0, "sustained WAL growth in bytes/second that triggers compaction before the size threshold (0: 1MiB/s, or never when -wal-compact-bytes<0; <0: size-only)")
	)
	var preloads []preload
	flag.Func("in", "edge-list file to preload, as `path` or `id=path` (repeatable)", func(v string) error {
		id, path, ok := strings.Cut(v, "=")
		if !ok {
			path = v
			id = sessionIDFromPath(path, len(preloads))
		}
		if path == "" {
			return fmt.Errorf("empty path")
		}
		preloads = append(preloads, preload{id: id, path: path})
		return nil
	})
	flag.Parse()

	cfg := store.Config{
		MaxBytes:        *maxBytes,
		MaxSessions:     *maxSessions,
		ResultCacheSize: *cacheSize,
	}
	if *dataDir != "" {
		policy, err := durable.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("bcserve: %v", err)
		}
		mgr, err := durable.NewManager(durable.Options{
			Dir:          *dataDir,
			Fsync:        policy,
			CompactBytes: *compactWAL,
			CompactRate:  *compactRate,
		})
		if err != nil {
			log.Fatalf("bcserve: %v", err)
		}
		cfg.Durable = mgr
	}
	// Open replays every session persisted under -data-dir (a no-op
	// without one); unrecoverable sessions are logged and skipped, never
	// fatal.
	st, err := store.Open(cfg)
	if err != nil {
		log.Fatalf("bcserve: %v", err)
	}
	if cfg.Durable != nil {
		log.Printf("bcserve: durable store at %s (fsync=%s): %d session(s) recovered", *dataDir, *fsyncMode, st.Len())
	}
	for _, p := range preloads {
		raw, idOf, err := graph.ReadEdgeListFile(p.path)
		if err != nil {
			log.Fatalf("bcserve: loading %s: %v", p.path, err)
		}
		// Preloaded graphs are pinned: operator-chosen working sets
		// must not fall out under upload pressure.
		sess, err := st.CreateFromGraph(p.id, raw, idOf, true)
		if errors.Is(err, store.ErrExists) && cfg.Durable != nil {
			// The id came back from the data dir (with any mutations the
			// file on disk does not know about); serve the recovered
			// session rather than clobbering it.
			if sess, err = st.Get(p.id); err == nil {
				log.Printf("bcserve: session %q recovered from %s at version %d (preload file %s left unread)",
					p.id, *dataDir, sess.Version(), p.path)
				continue
			}
		}
		if err != nil {
			log.Fatalf("bcserve: preparing %s: %v", p.path, err)
		}
		g := sess.Engine().Graph()
		if sess.Engine().Mapping() != nil {
			log.Printf("bcserve: %s: using largest component (%d of %d vertices)", p.id, g.N(), raw.N())
		}
		log.Printf("bcserve: session %q ready (n=%d, m=%d, ~%d bytes)", p.id, g.N(), g.M(), sess.Cost())
	}
	if *defaultID == "" && len(preloads) > 0 {
		*defaultID = preloads[0].id
	}
	if *defaultID != "" {
		if _, err := st.Get(*defaultID); err != nil {
			log.Fatalf("bcserve: default session %q: %v", *defaultID, err)
		}
		log.Printf("bcserve: single-graph routes alias session %q", *defaultID)
	}

	handler := store.NewServerWithOptions(st, store.ServerOptions{
		DefaultID:   *defaultID,
		MaxRankJobs: *maxRankJobs,
		SyncRankN:   *syncRankN,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           http.MaxBytesHandler(handler, *maxBody),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, give
	// in-flight requests the drain window, then close the store so any
	// chains still running abort through their session contexts.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("bcserve: serving %d graph(s) on %s (budget %d bytes, %d sessions max)",
			st.Len(), *addr, *maxBytes, *maxSessions)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatalf("bcserve: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	log.Printf("bcserve: shutting down (draining up to %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("bcserve: shutdown: %v", err)
	}
	// Abort anything that outlived the drain window and free the store.
	st.Close()
	log.Printf("bcserve: bye")
}

// sessionIDFromPath derives a session id from a bare -in path: the file
// base name without extension when that is a valid store id (the store
// is the single authority on id rules), g<index> otherwise.
func sessionIDFromPath(path string, index int) string {
	base := filepath.Base(path)
	id := strings.TrimSuffix(base, filepath.Ext(base))
	if store.CheckID(id) != nil {
		id = fmt.Sprintf("g%d", index)
	}
	return id
}

// runMutateCLI implements `bcserve mutate`: an HTTP client for
// PATCH /graphs/{id}/edges against a running bcserve.
func runMutateCLI(args []string) error {
	fs := flag.NewFlagSet("bcserve mutate", flag.ExitOnError)
	var (
		url       = fs.String("url", "http://localhost:8080", "server base URL")
		graphID   = fs.String("graph", "", "graph session id to mutate (required)")
		ifVersion = fs.Int64("if-version", -1, "apply only if the graph is at exactly this version (-1: unconditional)")
		timeout   = fs.Duration("timeout", 30*time.Second, "request timeout")
	)
	retry := retryFlags(fs)
	var edits []store.EditRequest
	addEdit := func(op string) func(string) error {
		return func(v string) error {
			parts := strings.Split(v, ",")
			if op == "remove" && len(parts) != 2 || op == "add" && (len(parts) < 2 || len(parts) > 3) {
				return fmt.Errorf("want u,v%s", map[string]string{"add": "[,w]", "remove": ""}[op])
			}
			var e store.EditRequest
			e.Op = op
			var err error
			if e.U, err = strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64); err != nil {
				return err
			}
			if e.V, err = strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64); err != nil {
				return err
			}
			if len(parts) == 3 {
				if e.W, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64); err != nil {
					return err
				}
			}
			edits = append(edits, e)
			return nil
		}
	}
	fs.Func("add", "edge to insert, as `u,v` or `u,v,w` (repeatable; labels as served)", addEdit("add"))
	fs.Func("remove", "edge to delete, as `u,v` (repeatable)", addEdit("remove"))
	fs.Parse(args)
	if *graphID == "" {
		fs.Usage()
		return fmt.Errorf("-graph is required")
	}
	if len(edits) == 0 {
		return fmt.Errorf("no edits; pass -add and/or -remove")
	}
	if retry.retries > 0 && *ifVersion < 0 {
		// Without the precondition, a retry whose first attempt actually
		// applied (but whose reply was lost) would apply the batch twice.
		// With it, the duplicate is answered 409 — the retry is safe.
		return fmt.Errorf("-retries requires -if-version: an unconditioned PATCH is not idempotent")
	}
	req := store.MutateRequest{Edits: edits}
	if *ifVersion >= 0 {
		v := uint64(*ifVersion)
		req.IfVersion = &v
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	resp, err := doRetry(http.DefaultClient, func() (*http.Request, error) {
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPatch,
			strings.TrimRight(*url, "/")+"/graphs/"+*graphID+"/edges", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		httpReq.Header.Set("Content-Type", "application/json")
		return httpReq, nil
	}, *retry)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("server: %d %s: %s", resp.StatusCode, http.StatusText(resp.StatusCode), e.Error)
		}
		return fmt.Errorf("server: %d %s", resp.StatusCode, http.StatusText(resp.StatusCode))
	}
	var out store.MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	fmt.Printf("graph %s: version %d (n=%d, m=%d, ~%d bytes)\n", out.ID, out.Version, out.N, out.M, out.Bytes)
	fmt.Printf("  +%d edge(s), -%d edge(s); %d vertices changed: %v\n", out.Added, out.Removed, len(out.Changed), out.Changed)
	fmt.Printf("  μ-cache: %d retained, %d invalidated\n", out.MuRetained, out.MuInvalidated)
	return nil
}

// runStreamCLI implements `bcserve stream`: pipe NDJSON edit batches to
// POST /graphs/{id}/stream and print the per-batch acknowledgements as
// they come back. No retries: a stream is not idempotent (batches
// without if_version re-apply), and the per-line acks already tell the
// operator exactly how far a broken run got.
func runStreamCLI(args []string) error {
	fs := flag.NewFlagSet("bcserve stream", flag.ExitOnError)
	var (
		url     = fs.String("url", "http://localhost:8080", "server base URL")
		graphID = fs.String("graph", "", "graph session id to stream into (required)")
		in      = fs.String("in", "-", `NDJSON batch file, one {"edits":[...]} per line ("-": stdin)`)
		quiet   = fs.Bool("quiet", false, "print only rejected batches and the summary")
	)
	fs.Parse(args)
	if *graphID == "" {
		fs.Usage()
		return fmt.Errorf("-graph is required")
	}
	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(*url, "/")+"/graphs/"+*graphID+"/stream", src)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp)
	}
	// Every response line is either a StreamLine or the StreamSummary;
	// this struct is the superset of both.
	type replyLine struct {
		Seq           int    `json:"seq"`
		Applied       any    `json:"applied"` // bool per batch, int on the summary
		Version       uint64 `json:"version"`
		N             int    `json:"n"`
		M             int    `json:"m"`
		Added         int    `json:"added"`
		Removed       int    `json:"removed"`
		MuRetained    int    `json:"mu_retained"`
		MuInvalidated int    `json:"mu_invalidated"`
		Error         string `json:"error"`
		Done          bool   `json:"done"`
		Rejected      int    `json:"rejected"`
	}
	dec := json.NewDecoder(resp.Body)
	sawSummary := false
	rejected := 0
	for dec.More() {
		// Fresh per line: applied lines omit "error" (and vice versa),
		// and Decode leaves absent fields untouched.
		var line replyLine
		if err := dec.Decode(&line); err != nil {
			return fmt.Errorf("decoding server reply: %w", err)
		}
		switch {
		case line.Done:
			sawSummary = true
			rejected = line.Rejected
			applied, _ := line.Applied.(float64)
			fmt.Printf("stream done: %d applied, %d rejected, graph at version %d\n",
				int(applied), line.Rejected, line.Version)
		case line.Error != "":
			fmt.Printf("batch %d REJECTED: %s\n", line.Seq, line.Error)
		default:
			if !*quiet {
				fmt.Printf("batch %d: version %d (n=%d, m=%d) +%d -%d; μ-cache %d retained, %d invalidated\n",
					line.Seq, line.Version, line.N, line.M, line.Added, line.Removed,
					line.MuRetained, line.MuInvalidated)
			}
		}
	}
	if !sawSummary {
		return fmt.Errorf("stream ended without a summary (connection cut mid-stream?)")
	}
	if rejected > 0 {
		return fmt.Errorf("%d batch(es) rejected", rejected)
	}
	return nil
}

// runRankCLI implements `bcserve rank`: the offline counterpart of
// POST /graphs/{id}/rank, ranking an edge-list file's top-k vertices
// by progressive refinement and printing the result as a table.
func runRankCLI(args []string) error {
	fs := flag.NewFlagSet("bcserve rank", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "edge-list file to rank (required)")
		k       = fs.Int("k", rank.DefaultK, "ranking size")
		steps   = fs.Int("steps", rank.DefaultInitialSteps, "round-1 batch: source passes (bc) or per-candidate chain steps")
		rounds  = fs.Int("rounds", rank.DefaultMaxRounds, "maximum refinement rounds")
		growth  = fs.Float64("growth", rank.DefaultGrowth, "per-round batch multiplier (≥ 1)")
		budget  = fs.Int("budget", 0, "total budget: source passes (bc) or MH steps over all candidates (0: unbounded)")
		sample  = fs.Int("sample", 0, "rank only this many highest-degree vertices (0: all)")
		conc    = fs.Int("conc", 0, "worker pool width (0: GOMAXPROCS)")
		seed    = fs.Uint64("seed", 1, "run seed (reproducible)")
		z       = fs.Float64("z", rank.DefaultConfidence, "confidence-interval half-width multiplier")
		estim   = fs.String("estimator", rank.EstimatorUnbiased.String(), `chain statistic of a non-bc ranking: "unbiased" or "chain-avg"`)
		meas    = fs.String("measure", "bc", `centrality measure: "bc", "coverage", "kpath", or "rwbc"`)
		measK   = fs.Int("measure-k", 0, "k-path length bound (kpath only; 0: default)")
		adapt   = fs.Bool("adaptive", false, "empirical-Bernstein early stop on each per-candidate chain (non-bc)")
		exact   = fs.Bool("exact", false, "also compute exact betweenness (O(nm) Brandes) and report the top-k overlap")
		url     = fs.String("url", "", "rank a served graph over HTTP instead of a local file (with -graph)")
		graphID = fs.String("graph", "", "graph session id to rank on the server at -url")
		poll    = fs.Duration("poll", 500*time.Millisecond, "job polling interval in remote mode")
	)
	retry := retryFlags(fs)
	fs.Parse(args)
	spec, err := measure.Parse(*meas, *measK)
	if err != nil {
		return fmt.Errorf("-measure: %w", err)
	}
	if *exact && !spec.IsBC() {
		return fmt.Errorf("-exact is betweenness-only; drop it or use -measure bc")
	}
	if *graphID != "" || *url != "" {
		if *graphID == "" || *url == "" {
			return fmt.Errorf("remote mode needs both -url and -graph")
		}
		if *in != "" {
			return fmt.Errorf("-in and -url/-graph are mutually exclusive")
		}
		if *exact {
			return fmt.Errorf("-exact is local-only (the server does not expose whole-graph Brandes)")
		}
		// Keep default-measure requests byte-identical to pre-measure
		// clients: "bc" rides the omitempty zero value.
		measName := *meas
		if spec.IsBC() {
			measName = ""
		}
		return runRankRemote(*url, *graphID, store.RankRequest{
			K: *k, InitialSteps: *steps, Growth: *growth, MaxRounds: *rounds,
			TotalBudget: *budget, MaxCandidates: *sample, Concurrency: *conc,
			Seed: *seed, Confidence: *z, Estimator: *estim,
			Measure: measName, MeasureK: *measK, Adaptive: *adapt,
		}, *retry, *poll)
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	raw, idOf, err := graph.ReadEdgeListFile(*in)
	if err != nil {
		return err
	}
	eng, err := engine.New(raw)
	if err != nil {
		return err
	}
	g := eng.Graph()
	if eng.Mapping() != nil {
		log.Printf("bcserve rank: using largest component (%d of %d vertices)", g.N(), raw.N())
	}
	// Compose read-time label compaction with largest-component
	// extraction, as the store does for serving sessions.
	labelOf := func(v int) int64 {
		if m := eng.Mapping(); m != nil {
			v = m[v]
		}
		if idOf == nil {
			return int64(v)
		}
		return idOf[v]
	}

	var estimator rank.Estimator
	switch *estim {
	case rank.EstimatorUnbiased.String():
		estimator = rank.EstimatorUnbiased
	case rank.EstimatorChainAverage.String():
		estimator = rank.EstimatorChainAverage
	default:
		return fmt.Errorf("unknown -estimator %q (want %q or %q)", *estim, rank.EstimatorUnbiased, rank.EstimatorChainAverage)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	opts := rank.Options{
		K: *k, InitialSteps: *steps, Growth: *growth, MaxRounds: *rounds, TotalBudget: *budget,
		Confidence: *z, MaxCandidates: *sample, Concurrency: *conc, Seed: *seed,
		Estimator: estimator, Measure: spec, Adaptive: *adapt,
	}
	unit := rankUnit(spec.IsBC())
	start := time.Now()
	res, err := rank.Run(ctx, g, eng.Pool(), opts, func(p rank.Progress) {
		log.Printf("bcserve rank: round %d done — %d candidates alive, %d %s spent", p.Round, p.Active, p.TotalSteps, unit)
	})
	if err != nil {
		return err
	}
	fmt.Printf("# top-%d of %d candidates (n=%d, m=%d) — %d rounds, %d %s, %d pruned, %v\n",
		len(res.TopK), len(res.All), g.N(), g.M(), res.Rounds, res.TotalSteps, unit, res.Pruned, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%4s %8s %12s %12s %8s\n", "rank", "vertex", "estimate", "±interval", "steps")
	for i, e := range res.TopK {
		fmt.Printf("%4d %8d %12.6f %12.6f %8d\n", i+1, labelOf(e.Vertex), e.Estimate, e.Upper-e.Estimate, e.Steps)
	}
	if *exact {
		bc, err := core.ExactBC(g)
		if err != nil {
			return err
		}
		kk := len(res.TopK)
		if kk > len(bc) {
			kk = len(bc)
		}
		exactTop := stats.TopKIndices(bc, kk)
		fmt.Printf("\n# exact top-%d (Brandes)\n", len(exactTop))
		for i, v := range exactTop {
			fmt.Printf("%4d %8d %12.6f\n", i+1, labelOf(v), bc[v])
		}
		inExact := make(map[int]bool, len(exactTop))
		for _, v := range exactTop {
			inExact[v] = true
		}
		hits := 0
		for _, e := range res.TopK {
			if inExact[e.Vertex] {
				hits++
			}
		}
		fmt.Printf("\ntop-%d overlap: %d/%d\n", len(exactTop), hits, len(exactTop))
	}
	return nil
}

// runRankRemote ranks a served graph: POST /graphs/{id}/rank, then —
// when the server answers 202 with a job — poll /jobs/{jid} until the
// job reaches a terminal status. Both the submission and each poll go
// through the retry helper, so a briefly unreachable or restarting
// server (crash recovery in progress) does not kill a long-running
// ranking from the client side.
func runRankRemote(baseURL, graphID string, req store.RankRequest, retry retryOptions, poll time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	base := strings.TrimRight(baseURL, "/")
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := doRetry(http.DefaultClient, func() (*http.Request, error) {
		r, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/graphs/"+graphID+"/rank", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		r.Header.Set("Content-Type", "application/json")
		return r, nil
	}, retry)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Synchronous mode: the body is the final result.
		var res store.RankResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return fmt.Errorf("decoding result: %w", err)
		}
		printRankResult(res)
		return nil
	case http.StatusAccepted:
	default:
		return remoteError(resp)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil || job.ID == "" {
		return fmt.Errorf("decoding job reply: %v", err)
	}
	resp.Body.Close()
	log.Printf("bcserve rank: job %s on %q accepted; polling every %v", job.ID, graphID, poll)
	lastRound := -1
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
		resp, err := doRetry(http.DefaultClient, func() (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+job.ID, nil)
		}, retry)
		if err != nil {
			return err
		}
		var info struct {
			Status   string          `json:"status"`
			Error    string          `json:"error"`
			Progress json.RawMessage `json:"progress"`
			Result   json.RawMessage `json:"result"`
		}
		if resp.StatusCode != http.StatusOK {
			err := remoteError(resp)
			resp.Body.Close()
			return err
		}
		decErr := json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if decErr != nil {
			return fmt.Errorf("decoding job status: %w", decErr)
		}
		switch info.Status {
		case "running":
			var p store.RankProgress
			if len(info.Progress) > 0 && json.Unmarshal(info.Progress, &p) == nil && p.Round > lastRound {
				lastRound = p.Round
				log.Printf("bcserve rank: round %d done — %d candidates alive, %d steps spent", p.Round, p.Active, p.TotalSteps)
			}
		case "done":
			var res store.RankResult
			if err := json.Unmarshal(info.Result, &res); err != nil {
				return fmt.Errorf("decoding job result: %w", err)
			}
			printRankResult(res)
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("job %s %s: %s", job.ID, info.Status, info.Error)
		default:
			return fmt.Errorf("job %s in unknown status %q", job.ID, info.Status)
		}
	}
}

// remoteError extracts the server's {"error": ...} body into an error.
func remoteError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("server: %d %s: %s", resp.StatusCode, http.StatusText(resp.StatusCode), e.Error)
	}
	return fmt.Errorf("server: %d %s", resp.StatusCode, http.StatusText(resp.StatusCode))
}

// rankUnit names what a ranking's step counts count: source passes for
// betweenness (a bc result names no measure), MH steps otherwise.
func rankUnit(bc bool) string {
	if bc {
		return "source passes"
	}
	return "MH steps"
}

// printRankResult renders a remote ranking in the local table format
// (vertices are input labels, as served).
func printRankResult(res store.RankResult) {
	fmt.Printf("# top-%d of graph %s v%d (%d candidates) — %d rounds, %d %s, %d pruned, %.0fms\n",
		res.K, res.Graph, res.GraphVersion, res.Candidates, res.Rounds, res.TotalSteps, rankUnit(res.Measure == ""), res.Pruned, res.ElapsedMS)
	fmt.Printf("%4s %8s %12s %12s %8s\n", "rank", "vertex", "estimate", "±interval", "steps")
	for i, e := range res.Top {
		fmt.Printf("%4d %8d %12.6f %12.6f %8d\n", i+1, e.Vertex, e.Estimate, e.Upper-e.Estimate, e.Steps)
	}
}
