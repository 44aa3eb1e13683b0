// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates every input from a seed, drives the code under
// test through the surface a user sees (HTTP via client.Client against an
// in-process server, or the xmlvalid/xsdvalid commands), checks every
// verdict against the one known from how the input was built, and prints
// one JSON result line.
//
//	perfbench --workload http-validate|corpus-validate|schema-churn \
//	    --seed N --seconds S --trace 0|1 --bin DIR --work DIR
//
// With --trace 0 it reports the end-to-end metrics of the workload; with
// --trace 1 it runs the per-layer ladder instead (ladder.go). run.sh
// builds this command and the two CLIs, then runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, the last set-up is the one measured.
const setupReps = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a measured phase or a traced ladder returns.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// instance is a set-up workload.
type instance interface {
	measure(seconds float64) (*outcome, error)
	trace(seconds float64) (*outcome, error)
	close()
}

type options struct {
	seed uint64
	bin  string // directory holding the xmlvalid and xsdvalid binaries
	work string // scratch directory for the corpus and trace files
	// smoke shrinks inputs and repetitions so a run takes a fraction of a
	// second; the benchmark's tests use it.
	smoke bool
}

var workloads = map[string]func(options) (instance, error){
	"http-validate":   newHTTPValidate,
	"corpus-validate": newCorpusValidate,
	"schema-churn":    newSchemaChurn,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "http-validate, corpus-validate or schema-churn")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
		bin     = flag.String("bin", ".bench_build/bin", "directory of the xmlvalid and xsdvalid binaries")
		work    = flag.String("work", ".bench_build/work", "scratch directory")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	opt := options{seed: *seed, bin: *bin, work: filepath.Join(*work, *name)}
	var (
		inst   instance
		setups []float64
	)
	reps := setupReps
	if *trace == 1 {
		reps = 1 // the traced run reports no setup_s
	}
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = mk(opt); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 2
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	var (
		out *outcome
		err error
	)
	if *trace == 1 {
		out, err = inst.trace(*seconds)
	} else {
		out, err = inst.measure(*seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 1 {
		out.set("setup_s", "s", median(setups))
		out.set("ok_ratio", "ratio", 1-float64(out.failed)/float64(max(out.attempted, 1)))
	}
	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
