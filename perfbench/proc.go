package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env owns everything a run creates outside its own memory: the temporary
// directory (the built server binary and data directories) and the server
// processes. cleanup is deferred by main and stops and removes all of it, so
// success, a failed check, a panic and an interrupt leave nothing behind.
type env struct {
	root string // checkout root, where cmd/evilbloom lives
	tmp  string // per-run temporary directory under the build directory
	bin  string // the built evilbloom binary

	mu      sync.Mutex
	servers []*server
}

func newEnv(root, buildDir string) (*env, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: temporary directory %s\n", tmp)
	return &env{root: root, tmp: tmp, bin: filepath.Join(tmp, "evilbloom")}, nil
}

// cleanup kills and reaps every server still running, then removes the
// temporary directory with the binary and the data directories.
func (e *env) cleanup() {
	e.mu.Lock()
	servers := e.servers
	e.servers = nil
	e.mu.Unlock()
	for _, s := range servers {
		s.kill()
	}
	if err := os.RemoveAll(e.tmp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", e.tmp, err)
	}
}

// childAttr puts a child in its own process group, so killing the group
// reaches everything it started, and has the kernel kill it should the
// benchmark die without running cleanup. Children are started from the
// main goroutine, which main locks to its thread: the parent-death signal
// fires when the forking thread exits.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}

// build compiles cmd/evilbloom from the checkout into the run's temporary
// directory.
func (e *env) build(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin, "./cmd/evilbloom")
	cmd.Dir = e.root
	cmd.SysProcAttr = childAttr()
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building cmd/evilbloom: %v\n%s", err, out)
	}
	return nil
}

// dataDir makes a fresh directory for one server's durable state.
func (e *env) dataDir() (string, error) {
	return os.MkdirTemp(e.tmp, "data-")
}

// server is one `evilbloom serve` child.
type server struct {
	cmd      *exec.Cmd
	pid      int
	httpAddr string
	respAddr string
	// eof closes when the child's stderr reaches EOF, that is when it has
	// exited; it is not reaped until stop or kill calls Wait.
	eof    chan struct{}
	mu     sync.Mutex
	tail   []string // last lines of the server's log, for failure reports
	once   sync.Once
	reaped atomic.Bool
	err    error
}

const (
	bannerHTTP = "listening on http://"
	bannerRESP = "RESP plane on "
)

// startServer runs `evilbloom serve args...` on loopback ports the kernel
// picks and returns once the startup banner has named both addresses.
func (e *env) startServer(ctx context.Context, args []string) (*server, error) {
	args = append([]string{"serve", "-addr", "127.0.0.1:0", "-resp-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(e.bin, args...)
	cmd.Dir = e.tmp
	// The client runs on one P; the server gets the remaining cores, so the
	// two processes' schedulers do not fight over the same one.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", max(1, runtime.NumCPU()-1)))
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, eof: make(chan struct{})}
	e.mu.Lock()
	e.servers = append(e.servers, s)
	e.mu.Unlock()

	addrs := make(chan [2]string, 1)
	go s.readLog(stderr, addrs)
	select {
	case a := <-addrs:
		s.httpAddr, s.respAddr = a[0], a[1]
		fmt.Fprintf(os.Stderr, "perfbench: server pid %d on http %s, resp %s\n", s.pid, s.httpAddr, s.respAddr)
		return s, nil
	case <-s.eof:
		e.forget(s)
		err := s.kill()
		return nil, fmt.Errorf("server exited during startup (%v):\n%s", err, s.log())
	case <-time.After(60 * time.Second):
		e.forget(s)
		s.kill()
		return nil, fmt.Errorf("server printed no banner within 60s:\n%s", s.log())
	case <-ctx.Done():
		e.forget(s)
		s.kill()
		return nil, ctx.Err()
	}
}

// readLog drains the server's stderr, keeping a tail and reporting the
// listen addresses from the startup banner.
func (s *server) readLog(r io.Reader, addrs chan<- [2]string) {
	defer close(s.eof)
	var httpAddr, respAddr string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.tail = append(s.tail, line)
		if len(s.tail) > 40 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
		if i := strings.Index(line, bannerHTTP); i >= 0 {
			httpAddr = strings.TrimSpace(line[i+len(bannerHTTP):])
		}
		if i := strings.Index(line, bannerRESP); i >= 0 {
			respAddr, _, _ = strings.Cut(line[i+len(bannerRESP):], " ")
		}
		if httpAddr != "" && respAddr != "" {
			addrs <- [2]string{httpAddr, respAddr}
			httpAddr, respAddr = "", ""
		}
	}
	io.Copy(io.Discard, r) // a too-long line stops the scanner; keep draining
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// forget drops s from the cleanup list once it has been reaped.
func (e *env) forget(s *server) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, t := range e.servers {
		if t == s {
			e.servers = append(e.servers[:i], e.servers[i+1:]...)
			return
		}
	}
}

// kill SIGKILLs the server's process group and reaps the server. Once the
// server is reaped its pid may be reused, so it is never signalled again.
func (s *server) kill() error {
	if !s.reaped.Load() {
		syscall.Kill(-s.pid, syscall.SIGKILL)
	}
	return s.reap()
}

// reap waits for the log reader and the process; the group kill before
// Wait catches anything the server left in its group while the leader's
// pid is still held.
func (s *server) reap() error {
	s.once.Do(func() {
		<-s.eof
		syscall.Kill(-s.pid, syscall.SIGKILL)
		s.err = s.cmd.Wait()
		s.reaped.Store(true)
	})
	return s.err
}

// stop asks the server to drain with SIGTERM and reaps it. It reports an
// error when the server does not exit cleanly within the timeout.
func (e *env) stop(s *server, timeout time.Duration) error {
	defer e.forget(s)
	if s.reaped.Load() {
		return s.err
	}
	syscall.Kill(s.pid, syscall.SIGTERM)
	select {
	case <-s.eof:
	case <-time.After(timeout):
		s.kill()
		return fmt.Errorf("server ignored SIGTERM for %v:\n%s", timeout, s.log())
	}
	if err := s.reap(); err != nil {
		return fmt.Errorf("server drain: %v:\n%s", err, s.log())
	}
	return nil
}

// stopNow kills the server without a drain.
func (e *env) stopNow(s *server) {
	s.kill()
	e.forget(s)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 for every architecture this runs on.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// Fields after the command name start at field 3 (state); utime and
	// stime are fields 14 and 15.
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procHWM returns a process's peak resident set size in bytes (VmHWM).
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
