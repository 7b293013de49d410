// Command benchjson converts `go test -bench -benchmem` text output into
// a stable JSON report, so benchmark baselines can be committed and
// diffed (see `make bench`, which writes BENCH_pipeline.json), and
// checks fresh results against a committed baseline (`-compare`), which
// is how CI catches performance regressions (see `make bench-check`).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -out BENCH_pipeline.json
//	benchjson -in bench.out -out BENCH_pipeline.json
//	benchjson -in bench.out -compare BENCH_pipeline.json -tolerance 2.0
//
// -overhead takes comma-separated base=variant:maxratio triples and
// fails (exit 1) when the variant's ns/op exceeds base × maxratio —
// how `make bench-obs` enforces that request tracing stays within 5%
// of the untraced serving path. The same absolute slack as -compare
// applies, so sub-microsecond baselines do not flap on noise. It too
// composes with either output mode.
//
// In -compare mode every benchmark present in both the input and the
// baseline is checked: ns/op and allocs/op may not exceed baseline ×
// tolerance (plus a small absolute slack that keeps tiny, noisy numbers
// from flapping). Exit status is 1 when any benchmark regresses, 2 on
// usage or IO errors, 0 otherwise. Benchmarks only on one side are
// reported but never fail the run, so baselines and bench lists can
// evolve independently.
//
// Lines that are not benchmark results (pkg headers, PASS/ok, warnings)
// are ignored. Each result line
//
//	BenchmarkStoreAppend-8   1234   98765 ns/op   432 B/op   7 allocs/op
//
// becomes one entry with the -N GOMAXPROCS suffix stripped from the name.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the file layout of BENCH_pipeline.json.
type Report struct {
	// Note says how to regenerate the file; tooling ignores it.
	Note       string   `json:"note"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark text output (default: stdin)")
		out       = flag.String("out", "", "JSON report path (default: stdout)")
		compare   = flag.String("compare", "", "baseline JSON report to check results against (disables -out)")
		tolerance = flag.Float64("tolerance", 2.0, "allowed ns/op and allocs/op ratio vs the baseline in -compare mode")
		overhead  = flag.String("overhead", "", "comma-separated base=variant:maxratio triples; fail when variant ns/op exceeds base*maxratio (the tracing-overhead gate)")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r = f
	}
	results, err := parseBench(r)
	if err != nil {
		fatalf("%v", err)
	}
	if len(results) == 0 {
		fatalf("no benchmark result lines found in input")
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })

	overheadFailed := false
	if *overhead != "" {
		overheadFailed = checkOverheads(results, *overhead)
	}

	if *compare != "" {
		if *tolerance < 1 {
			fatalf("-tolerance %v must be >= 1", *tolerance)
		}
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fatalf("%v", err)
		}
		var baseline Report
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fatalf("parsing baseline %s: %v", *compare, err)
		}
		lines, failed := compareReports(baseline, results, *tolerance)
		for _, l := range lines {
			fmt.Println(l)
		}
		if failed {
			fmt.Fprintf(os.Stderr, "benchjson: regression vs %s (tolerance %gx)\n", *compare, *tolerance)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regression vs %s (tolerance %gx)\n", *compare, *tolerance)
		if overheadFailed {
			os.Exit(1)
		}
		return
	}

	report := Report{
		Note:       "generated by `make bench`; regenerate rather than editing",
		Benchmarks: results,
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	raw = append(raw, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(raw); err != nil {
			fatalf("%v", err)
		}
	} else {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), *out)
	}
	if overheadFailed {
		os.Exit(1)
	}
}

// Absolute slack added on top of the ratio tolerance, so benchmarks with
// tiny baselines (a few hundred ns, a handful of allocs) do not flap on
// scheduler noise: a result only fails when it exceeds both
// baseline*tolerance and baseline+slack.
const (
	nsSlack     = 1000.0 // 1µs
	allocsSlack = 16
)

// compareReports checks current results against a baseline with the
// given ratio tolerance and returns one status line per benchmark plus
// whether any regressed.
func compareReports(baseline Report, current []Result, tolerance float64) ([]string, bool) {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	seen := make(map[string]bool, len(current))
	var lines []string
	failed := false
	for _, cur := range current {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("  new   %-45s %12.0f ns/op %8d allocs/op (not in baseline)", cur.Name, cur.NsPerOp, cur.AllocsPerOp))
			continue
		}
		nsBad := cur.NsPerOp > b.NsPerOp*tolerance && cur.NsPerOp > b.NsPerOp+nsSlack
		allocsBad := float64(cur.AllocsPerOp) > float64(b.AllocsPerOp)*tolerance && cur.AllocsPerOp > b.AllocsPerOp+allocsSlack
		status := "ok"
		if nsBad || allocsBad {
			status = "FAIL"
			failed = true
		}
		lines = append(lines, fmt.Sprintf("  %-5s %-45s ns/op %12.0f -> %12.0f (%.2fx)  allocs/op %8d -> %8d",
			status, cur.Name, b.NsPerOp, cur.NsPerOp, ratio(cur.NsPerOp, b.NsPerOp), b.AllocsPerOp, cur.AllocsPerOp))
	}
	for _, b := range baseline.Benchmarks {
		if !seen[b.Name] {
			lines = append(lines, fmt.Sprintf("  skip  %-45s (in baseline, not in input)", b.Name))
		}
	}
	return lines, failed
}

// checkOverheads resolves each "base=variant:maxratio" triple in spec
// and checks that the variant's ns/op stays within base × maxratio —
// the gate `make bench-obs` uses to keep request tracing within 5% of
// the untraced serving path. As in -compare mode, the absolute nsSlack
// also has to be exceeded before a check fails, so tiny baselines do
// not flap on scheduler noise. Missing benchmarks are an error: a
// silently skipped gate is no gate.
func checkOverheads(results []Result, spec string) bool {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	failed := false
	for _, triple := range strings.Split(spec, ",") {
		pair, ratioStr, ok := strings.Cut(triple, ":")
		if !ok {
			fatalf("-overhead triple %q is not base=variant:maxratio", triple)
		}
		baseName, varName, ok := strings.Cut(pair, "=")
		if !ok {
			fatalf("-overhead triple %q is not base=variant:maxratio", triple)
		}
		maxRatio, err := strconv.ParseFloat(ratioStr, 64)
		if err != nil || maxRatio < 1 {
			fatalf("-overhead triple %q: maxratio %q must be a float >= 1", triple, ratioStr)
		}
		b, bok := byName[baseName]
		v, vok := byName[varName]
		if !bok || !vok {
			fatalf("-overhead triple %q: benchmark missing from input (base present: %v, variant present: %v)", triple, bok, vok)
		}
		bad := v.NsPerOp > b.NsPerOp*maxRatio && v.NsPerOp > b.NsPerOp+nsSlack
		status := "ok"
		if bad {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("  overhead %-4s %s -> %s: %.2fx (max %.2fx; %.0f -> %.0f ns/op)\n",
			status, baseName, varName, ratio(v.NsPerOp, b.NsPerOp), maxRatio, b.NsPerOp, v.NsPerOp)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchjson: overhead gate exceeded")
	}
	return failed
}

func ratio(cur, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return cur / base
}

// parseBench extracts benchmark result lines from go test output.
func parseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		res, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// parseLine parses one "BenchmarkName-8 N x ns/op [y B/op z allocs/op]"
// line; ok is false for non-benchmark lines.
func parseLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false, nil
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil // e.g. "Benchmark... SKIP"
	}
	res := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, false, fmt.Errorf("line %q: ns/op %q: %v", line, val, err)
			}
		case "B/op":
			if res.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false, fmt.Errorf("line %q: B/op %q: %v", line, val, err)
			}
		case "allocs/op":
			if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false, fmt.Errorf("line %q: allocs/op %q: %v", line, val, err)
			}
		}
	}
	return res, true, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
