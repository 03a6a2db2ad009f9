// Command bcbench prints the evaluation tables and figure series of the
// reproduction (internal/exp).
//
//	bcbench -run all -scale full          # everything, paper scale
//	bcbench -run f1,t3 -scale quick       # a subset, smoke scale
//	bcbench -list                         # what exists
//	bcbench -run t2 -cpuprofile cpu.pb.gz # profile one table's hot path
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"bcmh/internal/exp"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.String("scale", "quick", "quick or full")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Description)
		}
		return
	}
	var s exp.Scale
	switch *scale {
	case "quick":
		s = exp.Quick
	case "full":
		s = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "bcbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bcbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bcbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bcbench: -memprofile: %v\n", err)
			}
		}()
	}

	start := time.Now()
	if *run == "all" {
		if err := exp.RunAll(os.Stdout, s, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "bcbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := exp.ByID(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bcbench: %v\n", err)
				os.Exit(2)
			}
			if err := e.Run(os.Stdout, s, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "bcbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bcbench: done in %v (scale=%s seed=%d)\n", time.Since(start), s, *seed)
}
