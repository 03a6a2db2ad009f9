package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// traceInput is what the traced replay (package layers) receives. It is
// the JSON form of layers.Input, declared again here so that this package
// never links the program's internal packages: an internal refactor can
// break the traced replay, but not the end-to-end benchmark.
type traceInput struct {
	Workload string            `json:"workload"`
	EdgeList string            `json:"edge_list"`
	Requests []estimateRequest `json:"requests"`
	Rank     rankRequest       `json:"rank"`
	Chords   [][2]int          `json:"chords"`
	SpanFile string            `json:"span_file"`
	WALDir   string            `json:"wal_dir"`
	// Figures of the HTTP run the attribution table sets the layers
	// against: the client-side latency of a result-cache hit and the
	// workload's primary-operation median.
	ClientHitUS  float64 `json:"client_hit_us"`
	PrimaryP50MS float64 `json:"primary_p50_ms"`
}

// tracedRequests caps the sampled requests the replay runs.
const tracedRequests = 8

// traceRun probes the client-side cost of a result-cache hit on the live
// server, then hands the run's inputs to the traced replay.
func traceRun(ctx context.Context, r *run, cfg config) (map[string]float64, error) {
	if r.hit == nil {
		return nil, fmt.Errorf("no estimate to probe the result cache with")
	}
	var hits []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if err := r.estimate(ctx, *r.hit, nil); err != nil {
			return nil, err
		}
		hits = append(hits, float64(time.Since(t0))/float64(time.Microsecond))
	}
	in := traceInput{
		Workload:     r.w.name,
		EdgeList:     string(r.g.edgeList()),
		Requests:     r.traced,
		Rank:         rankRequest{K: 10, Seed: mix(r.seed, 5) | 1, TotalBudget: 8192, MaxCandidates: 64},
		SpanFile:     filepath.Join(cfg.workDir, fmt.Sprintf("spans-seed%d.json", r.seed)),
		WALDir:       filepath.Join(cfg.workDir, "wal"),
		ClientHitUS:  percentile(hits, 50),
		PrimaryP50MS: percentile(r.lat, 50),
	}
	if len(in.Requests) > tracedRequests {
		in.Requests = in.Requests[:tracedRequests]
	}
	if len(in.Requests) == 0 {
		in.Requests = []estimateRequest{*r.hit}
	}
	if r.rankReq != nil {
		in.Rank = *r.rankReq
	}
	seen := map[[2]int]bool{}
	for k := 0; len(in.Chords) < tracedRequests; k++ {
		if c := r.chord(1<<20 + k); !seen[c] {
			seen[c] = true
			in.Chords = append(in.Chords, c)
		}
	}
	if err := os.RemoveAll(in.WALDir); err != nil {
		return nil, err
	}
	return cfg.tracer(ctx, in)
}

// execTracer runs the replay as the tracer binary at bin, which prints
// its metrics as the last line of its output and the attribution table
// on standard error.
func execTracer(bin string) func(context.Context, traceInput) (map[string]float64, error) {
	return func(ctx context.Context, in traceInput) (map[string]float64, error) {
		file := in.SpanFile + ".input.json"
		if err := writeJSON(file, in); err != nil {
			return nil, err
		}
		cmd := exec.CommandContext(ctx, bin, "-in", file)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("tracer: %w", err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var metrics map[string]float64
		if err := json.Unmarshal(lines[len(lines)-1], &metrics); err != nil {
			return nil, fmt.Errorf("tracer output: %w", err)
		}
		return metrics, nil
	}
}
