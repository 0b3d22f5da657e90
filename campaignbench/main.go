// Command campaignbench is the repository's benchmark: it flies fixed
// campaign workloads through the public campaign, coord and scenario APIs,
// checks every output against an oracle, and prints end-to-end metrics
// (--trace 0) or per-module costs from a wrapped, digest-checked pass
// (--trace 1). The last stdout line is one JSON object; earlier lines
// start with "#" and carry provenance and per-pass detail.
//
// Run it from the repository root (run.sh builds and starts it):
//
//	bash campaignbench/run.sh --workload golden-sweep --seed 0 --seconds 20 --trace 0
//
// Exit status: 0 when every oracle passed, 1 when one failed (the JSON
// line says correct=false), 2 when the benchmark could not run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// watchdog ends an invocation that hangs, inside the 180 s a run may take.
const watchdog = 170 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: golden-sweep, fast-staged, dispatch-light or fleet3")
	flag.Int64Var(&o.seed, "seed", 0, "0 flies the canonical grid (golden oracles); any other value salts every cell")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement budget in seconds (whole passes, at least two)")
	trace := flag.Int("trace", 0, "1 prints per-module metrics from traced passes instead of end-to-end metrics")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "campaignbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(2)
	}
	o.root = root
	o.workers = runtime.NumCPU()

	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "campaignbench: still running after %v, giving up\n", watchdog)
		os.Exit(2)
	})
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// logf writes one "#"-prefixed detail line.
func logf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "# "+format+"\n", args...)
}
