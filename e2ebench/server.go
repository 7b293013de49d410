package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one cmd/serve child process the benchmark owns. The PID is
// the one exec returned — never a process-table lookup by name — and
// the child leads its own process group, so a stop signals exactly the
// processes this benchmark started.
type server struct {
	cmd     *exec.Cmd
	pid     int
	addr    string
	logPath string
	exited  chan struct{} // closed once Wait has reaped the child
	stop    sync.Once
}

// owned tracks every child process and temporary directory the run
// created, so each exit path — success, error, panic or signal — can
// release all of them (see cleanupAll).
var owned = struct {
	mu      sync.Mutex
	servers []*server
	dirs    []string
}{}

// startServer launches bin with args on a free loopback port and waits
// until /healthz answers 200.
func startServer(bin string, args []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("creating server log: %w", err)
	}
	defer logf.Close()
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Setpgid puts the child in its own group so a stop reaches it even
	// if it forks; Pdeathsig kills it should this process die without
	// running its cleanup (SIGKILL, runtime crash).
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}

	owned.mu.Lock()
	if err := cmd.Start(); err != nil {
		owned.mu.Unlock()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, addr: addr, logPath: logPath, exited: make(chan struct{})}
	owned.servers = append(owned.servers, s)
	owned.mu.Unlock()
	go s.reap()
	progress("server started pid=%d addr=%s", s.pid, s.addr)

	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.After(120 * time.Second)
	for !healthy(client, "http://"+addr+"/healthz") {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited during start-up: %s", s.logTail())
		case <-deadline:
			s.shutdown()
			return nil, fmt.Errorf("server not healthy after 120s: %s", s.logTail())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return s, nil
}

func healthy(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// reap waits for the child so it never lingers as a zombie, then marks
// it exited.
func (s *server) reap() {
	_ = s.cmd.Wait() // the exit status of a signalled server is expected to be non-zero
	close(s.exited)
}

// shutdown sends SIGTERM to the child's process group, waits for the
// graceful drain, and escalates to SIGKILL. It returns once the child
// has been reaped. Safe to call more than once and from any goroutine.
func (s *server) shutdown() {
	s.stop.Do(func() {
		_ = syscall.Kill(-s.pid, syscall.SIGTERM) // ESRCH: already gone
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = syscall.Kill(-s.pid, syscall.SIGKILL)
			<-s.exited
		}
	})
}

// vmHWM reads the child's peak resident set size in MiB.
func (s *server) vmHWM() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func (s *server) logTail() string {
	raw, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// newTempDir creates a per-run directory under base and registers it
// for removal by cleanupAll.
func newTempDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	sweepStaleTempDirs(base)
	dir, err := os.MkdirTemp(base, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return "", err
	}
	ownDir(dir)
	return dir, nil
}

// ownDir registers dir for removal by cleanupAll.
func ownDir(dir string) {
	owned.mu.Lock()
	owned.dirs = append(owned.dirs, dir)
	owned.mu.Unlock()
}

// sweepStaleTempDirs removes run directories left by a benchmark process
// that was killed outright (no cleanup can run on SIGKILL); a directory
// is stale when the PID in its name is no longer alive.
func sweepStaleTempDirs(base string) {
	entries, err := os.ReadDir(base)
	if err != nil {
		return
	}
	for _, e := range entries {
		var pid int
		if _, err := fmt.Sscanf(e.Name(), "run-%d-", &pid); err != nil || pid <= 0 {
			continue
		}
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			_ = os.RemoveAll(filepath.Join(base, e.Name())) // best effort; a later run retries
		}
	}
}

// cleanup makes cleanupAll run once: a second caller, such as main
// returning while a signal's cleanup is under way, waits for the first
// to finish before it can exit the process.
var cleanup struct {
	once sync.Once
	err  error
}

// cleanupAll stops every server this process started and removes every
// temporary directory, then checks that each child is reaped and its
// port refuses connections. Every call returns after the first has
// finished, with its result.
func cleanupAll() error {
	cleanup.once.Do(func() { cleanup.err = stopAll() })
	return cleanup.err
}

func stopAll() error {
	owned.mu.Lock()
	servers := append([]*server(nil), owned.servers...)
	dirs := owned.dirs
	owned.mu.Unlock()

	var errs []error
	for _, s := range servers {
		s.shutdown()
	}
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			errs = append(errs, err)
		}
	}
	for _, s := range servers {
		if s.cmd.ProcessState == nil {
			errs = append(errs, fmt.Errorf("server pid %d not reaped", s.pid))
		}
		if c, err := net.DialTimeout("tcp", s.addr, 200*time.Millisecond); err == nil {
			_ = c.Close()
			errs = append(errs, fmt.Errorf("server port %s still accepts connections", s.addr))
		}
	}
	return errors.Join(errs...)
}
