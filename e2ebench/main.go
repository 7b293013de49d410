// Command e2ebench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh compiles cmd/serve and this program from the
// checkout, then runs
//
//	e2ebench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// Each run starts cmd/serve as a child process it owns, drives it over
// TCP with its own open-loop generator (at most two connections), and
// reads server-side figures only from /metrics, /debug/traces and
// /v1/models. With -trace 0 it reports the end-to-end metrics; with
// -trace 1 a separate traced run reports the per-layer split. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// It runs from the checkout root, the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: serve-cold, serve-hot or retrain")
		seed     = flag.Uint64("seed", 1, "seed for the run's inputs")
		seconds  = flag.Float64("seconds", 10, "measured duration in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		work     = flag.String("work", ".bench_build", "directory for fixtures and run files")
		serveBin = flag.String("serve", "", "cmd/serve binary (default <work>/bin/serve)")
	)
	flag.Parse()
	if *serveBin == "" {
		*serveBin = filepath.Join(*work, "bin", "serve")
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload serve-cold|serve-hot|retrain, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}

	// A sender sleeping in a nanosleep system call keeps its P until the
	// runtime takes it back, which on a quiet process can take
	// milliseconds; with a P for every sender and two spare, a response
	// or a /metrics poll never waits for one.
	runtime.GOMAXPROCS(conns + 2)

	// Every exit path stops the servers and removes the run's files:
	// signals here, panics and errors below.
	// A write to a closed standard output or error must not kill the
	// run before its cleanup.
	signal.Ignore(syscall.SIGPIPE)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		progress("received %s, stopping", sig)
		if err := cleanupAll(); err != nil {
			progress("cleanup: %v", err)
		}
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			progress("panic: %v\n%s", p, debug.Stack())
			if err := cleanupAll(); err != nil {
				progress("cleanup: %v", err)
			}
			os.Exit(2)
		}
	}()

	res, err := execute(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work, *serveBin)
	cerr := cleanupAll()
	if err == nil && cerr != nil {
		err = fmt.Errorf("cleanup: %w", cerr)
	}
	if err != nil {
		progress("error: %v", err)
		os.Exit(1)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		progress("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

func execute(w workload, seed uint64, seconds time.Duration, traced bool, work, serveBin string) (*result, error) {
	if _, err := os.Stat(serveBin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	// The fixture is built in its own call so that nothing but an error
	// leaves the training pipeline's code path.
	if err := newFixture(work, w.fixture).ensure(); err != nil {
		return nil, err
	}
	r, err := newRun(w, seed, seconds, traced, work, serveBin)
	if err != nil {
		return nil, err
	}
	measure, defs := r.endToEnd, endToEndMetrics
	if traced {
		measure, defs = r.perLayer, perLayerMetrics
	}
	m, err := measure()
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		progress("%-28s %14.4f %s", d.name, v, d.unit)
	}
	res.Correct = len(r.notes) == 0 && res.Attempted > 0
	return res, nil
}

// progress logs to standard error; standard output carries only the
// result line.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}
