package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestNothingSurvives runs the benchmark to completion and interrupted
// mid-window, and checks that neither leaves a server process or its
// temporary directory behind.
func TestNothingSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	buildDir := t.TempDir()
	bin := filepath.Join(buildDir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name      string
		seconds   string
		interrupt bool
	}{
		{"complete", "1", false},
		{"interrupted", "60", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, "-build-dir", buildDir, "-root", root,
				"-workload", "http-batch", "-seed", "7", "-seconds", tc.seconds)
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var pids []int
			var tmp string
			pidLine := regexp.MustCompile(`server pid (\d+) `)
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				line := sc.Text()
				if m := pidLine.FindStringSubmatch(line); m != nil {
					pid, _ := strconv.Atoi(m[1])
					pids = append(pids, pid)
				}
				if rest, ok := strings.CutPrefix(line, "perfbench: temporary directory "); ok {
					tmp = rest
				}
				if tc.interrupt && strings.Contains(line, "perfbench: measuring") {
					cmd.Process.Signal(syscall.SIGINT)
				}
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err = <-done:
			case <-time.After(3 * time.Minute):
				cmd.Process.Kill()
				t.Fatal("benchmark did not exit")
			}
			if tc.interrupt && err == nil {
				t.Error("interrupted run exited 0")
			}
			if !tc.interrupt && err != nil {
				t.Errorf("complete run failed: %v", err)
			}
			if len(pids) == 0 || tmp == "" {
				t.Fatalf("no server pid or temporary directory reported (pids %v, dir %q)", pids, tmp)
			}
			for _, pid := range pids {
				if exe, err := os.Readlink("/proc/" + strconv.Itoa(pid) + "/exe"); err == nil && strings.HasPrefix(exe, tmp) {
					t.Errorf("server pid %d still running", pid)
				}
			}
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Errorf("temporary directory %s survived (%v)", tmp, err)
			}
		})
	}
}
