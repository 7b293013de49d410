package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestManifestMatchesTables keeps BENCHMARK.json and the metric and
// workload tables this program reports from in step.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var man struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s %d: manifest %+v, program %s %s %s %v", kind, i, m, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEndMetrics)
	check("per_layer", man.PerLayer, perLayerMetrics)
}

// TestInterruptedRunLeavesNothing interrupts a run while its server is
// up and checks that no server process, listener or run directory
// survives.
func TestInterruptedRunLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/serve and a fixture")
	}
	dir := t.TempDir()
	serve, bench := filepath.Join(dir, "serve"), filepath.Join(dir, "e2ebench")
	for _, b := range [][]string{{"-o", serve, "repro/cmd/serve"}, {"-o", bench, "."}} {
		if out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	work := filepath.Join(dir, "work")
	cmd := exec.Command(bench, "-workload", "serve-hot", "-seed", "1", "-seconds", "30", "-trace", "0", "-work", work, "-serve", serve)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	type child struct {
		pid  int
		addr string
	}
	var children []child
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		var c child
		if i := strings.Index(line, "server started "); i >= 0 {
			if _, err := fmt.Sscanf(line[i:], "server started pid=%d addr=%s", &c.pid, &c.addr); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			children = append(children, c)
		}
		if strings.Contains(line, "setup 3:") {
			break // the measured server is up and serving
		}
	}
	if len(children) != setups {
		t.Fatalf("saw %d server starts before the measured phase, want %d", len(children), setups)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	go func() {
		for sc.Scan() { // drain so the child never blocks on a full pipe
		}
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("benchmark did not exit within 60s of SIGINT")
	}
	if err == nil {
		t.Fatal("interrupted benchmark exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted benchmark printed a result: %q", stdout.String())
	}
	for _, c := range children {
		if err := syscall.Kill(c.pid, 0); err != syscall.ESRCH {
			t.Errorf("server pid %d still exists (kill 0: %v)", c.pid, err)
		}
		if conn, err := net.DialTimeout("tcp", c.addr, time.Second); err == nil {
			_ = conn.Close()
			t.Errorf("server address %s still accepts connections", c.addr)
		}
	}
	runs, err := filepath.Glob(filepath.Join(work, "tmp", "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Errorf("run directories left behind: %v", runs)
	}
}
