package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running coltd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // main API URL
	debug  string // -debug-addr URL ("" when not requested)
	stderr *tailWriter
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited closes
}

// startDaemon execs coltd at its default settings with a fresh cache
// directory and ephemeral ports, and returns once /v1/readyz answers
// 200, with the exec-to-ready time.
func startDaemon(bin, cacheDir string, withDebug bool) (*daemon, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0", "-cache-dir", cacheDir}
	if withDebug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	d := &daemon{cmd: exec.Command(bin, args...), stderr: &tailWriter{max: 8 << 10}, exited: make(chan struct{})}
	d.cmd.Stderr = d.stderr
	// The daemon must not outlive the benchmark, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting coltd: %w", err)
	}
	urls := make(chan [2]string, 1)
	go func() {
		// Learn the bound addresses from the startup lines, then keep
		// draining stdout so the daemon never blocks on it.
		sc := bufio.NewScanner(stdout)
		var api, dbg string
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if u, ok := strings.CutPrefix(line, "coltd: listening on "); ok {
				api = u
			}
			if u, ok := strings.CutPrefix(line, "coltd: debug listening on "); ok {
				dbg = u
			}
			if !sent && api != "" && (dbg != "" || !withDebug) {
				urls <- [2]string{api, dbg}
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case u := <-urls:
		d.base, d.debug = u[0], u[1]
	case <-d.exited:
		return nil, 0, fmt.Errorf("coltd exited before listening: %v: %s", d.err, d.stderr)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("coltd printed no listening line within 30s: %s", d.stderr)
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(d.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("coltd not ready within 30s: %v: %s", err, d.stderr)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, escalating to SIGKILL after
// 60 s, and returns once the process has exited.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuTicks is the daemon's utime+stime so far, in clock ticks
// (1/100 s on Linux).
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is [0],
	// utime [11], stime [12].
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %q", b)
	}
	return u + s, nil
}

const msPerTick = 10

// peakRSSMB is the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %v", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// tailWriter keeps the last max bytes written to it. It trims only
// once it holds twice that, in place, so the daemon's per-request log
// lines cost the benchmark no allocation each.
type tailWriter struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 2*t.max {
		t.b = t.b[:copy(t.b, t.b[len(t.b)-t.max:])]
	}
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.b
	if len(b) > t.max {
		b = b[len(b)-t.max:]
	}
	return strings.TrimSpace(string(b))
}

// commitOf reads the checkout's commit from .git without running git
// (the benchmark may run from a plain export of the tree).
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown (" + ref + ")"
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
