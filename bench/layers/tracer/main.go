// Command tracer runs the benchmark's traced replay (package layers) on
// an input file the benchmark wrote. It prints the attribution table on
// standard error and the per-layer metrics as one JSON object on
// standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"bcmh/bench/layers"
)

func main() {
	inPath := flag.String("in", "", "input file written by the benchmark")
	flag.Parse()
	data, err := os.ReadFile(*inPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	var in layers.Input
	if err := json.Unmarshal(data, &in); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	m, err := layers.Trace(context.Background(), in, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(m); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}
