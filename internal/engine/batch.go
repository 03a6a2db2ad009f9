package engine

import (
	"context"
	"runtime"
	"strconv"
	"sync"

	"bcmh/internal/core"
	"bcmh/internal/measure"
	"bcmh/internal/rng"
)

// BatchOptions configures EstimateBatchContext.
type BatchOptions struct {
	// Estimation carries the per-target estimation options. Its Seed
	// field is ignored: each target's chain seed is derived from the
	// request Seed below.
	Estimation core.Options
	// Seed is the request seed. Target r's chain seed is SeedFor(Seed,
	// r) — a deterministic function of the pair alone — so a batch is
	// reproducible and its per-target results are independent of target
	// order, duplicate grouping, and Concurrency.
	Seed uint64
	// Concurrency bounds the worker pool (default GOMAXPROCS).
	Concurrency int
	// Measure selects the centrality measure every target is estimated
	// under (the zero spec is bc, bit-identical to the pre-measure
	// batch path).
	Measure measure.Spec
}

// BatchResult pairs one requested target with its estimate, in request
// order.
type BatchResult struct {
	Target   int
	Estimate core.Estimate
}

// SeedFor returns the chain seed EstimateBatchContext uses for one
// target under a request seed. Exported so a single EstimateContext
// call can reproduce any batch entry exactly.
func SeedFor(seed uint64, target int) uint64 {
	return rng.New(seed).Split("target-" + strconv.Itoa(target)).Uint64()
}

// EstimateBatchContext estimates every target in targets over a worker
// pool, sharing the engine's μ-cache, result cache, and buffer pool
// across workers. Duplicate targets are dispatched once — they would
// use the same derived seed anyway, and fanning the one estimate to
// every occurrence avoids racing workers redundantly computing the
// same chain. Results come back in request order; the first estimation
// error (if any) aborts with that error. Cancellation aborts the
// in-flight per-target chains (each worker estimates through the
// snapshot-pinned estimation path) and stops dispatching queued
// targets, returning ctx's error. The whole batch runs on the one
// graph snapshot current at entry: a SwapGraph landing mid-batch
// affects no target of it, so a batch's results are always mutually
// consistent (one version).
func (e *Engine) EstimateBatchContext(ctx context.Context, targets []int, opts BatchOptions) ([]BatchResult, error) {
	sn := e.current()
	for _, r := range targets {
		if err := sn.checkVertex(r); err != nil {
			return nil, err
		}
	}
	e.batches.Add(1)
	out := make([]BatchResult, len(targets))
	if len(targets) == 0 {
		return out, nil
	}
	// positions[r] lists every request index asking for target r; it is
	// read-only once built.
	positions := make(map[int][]int, len(targets))
	distinct := make([]int, 0, len(targets))
	for i, r := range targets {
		if _, seen := positions[r]; !seen {
			distinct = append(distinct, r)
		}
		positions[r] = append(positions[r], i)
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(distinct) {
		workers = len(distinct)
	}
	errs := make([]error, len(distinct))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range work {
				r := distinct[di]
				o := opts.Estimation
				o.Seed = SeedFor(opts.Seed, r)
				est, err := e.estimateOn(ctx, sn, opts.Measure, r, o)
				if err != nil {
					errs[di] = err
					continue
				}
				for _, i := range positions[r] {
					out[i] = BatchResult{Target: r, Estimate: est}
				}
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for di := range distinct {
		select {
		case work <- di:
		case <-done:
			// Stop feeding the pool; in-flight estimates abort on their
			// own cancellation checks.
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
