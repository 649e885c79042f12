package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds how long a started bccserve may take to print its
// listening line.
const readyTimeout = 30 * time.Second

// serverArgs is the exact bccserve command line of every workload: a
// loopback listener on a free port, the disk store (L1) and the shared
// bucket (L2) under dir, and the defaults for everything else (-mem 64,
// -parallel 2, -queue 16).
func serverArgs(dir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(dir, "store"),
		"-objstore", filepath.Join(dir, "bucket"),
	}
}

// child is a running bccserve process.
type child struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed once its stdout reaches EOF
}

// startServer execs bin with args and waits for its listening line.
// The child is killed if this process dies first, so a crashed run
// cannot leave a server behind to skew the next one.
func startServer(ctx context.Context, bin string, args []string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bccserve: %w", err)
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "bccserve listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
	}()
	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case a := <-addr:
		c.url = "http://" + a
		return c, nil
	case <-c.drained:
		err = errors.New("bccserve exited before listening")
	case <-timer.C:
		err = fmt.Errorf("bccserve not listening after %s", readyTimeout)
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.stop()
	return nil, err
}

// stop terminates the child (SIGTERM, then SIGKILL after a grace period)
// and waits until it has exited and its output is drained.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-c.drained
		_ = c.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-exited
	}
}

// cpuTime is the child's user+system CPU time so far, from
// /proc/<pid>/stat.
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / time.Duration(clockTicks()), nil
}

// peakRSS is the child's peak resident set size (VmHWM) in bytes.
func (c *child) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS restarts the child's peak-RSS accounting at its current
// RSS (/proc/<pid>/clear_refs), so the next peakRSS covers only what
// happened since.
func (c *child) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", c.cmd.Process.Pid), []byte("5"), 0)
}

// stealTime is the CPU time the hypervisor has taken from this host's
// CPUs so far, all CPUs together (the steal column of /proc/stat); 0
// where the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / time.Duration(clockTicks())
}

// clockTicks is the kernel's USER_HZ (AT_CLKTCK from the auxiliary
// vector), the unit of /proc/<pid>/stat CPU times; 100 if unreadable.
func clockTicks() int64 {
	b, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	const atClkTck = 17
	for i := 0; i+16 <= len(b); i += 16 {
		if binary.LittleEndian.Uint64(b[i:]) == atClkTck {
			return int64(binary.LittleEndian.Uint64(b[i+8:]))
		}
	}
	return 100
}
