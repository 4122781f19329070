package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opTimeout bounds every reply the harness waits for; a daemon that does
// not answer within it has hung, which counts as a failed op.
const opTimeout = 60 * time.Second

// setupTimeout bounds the time from exec to the first "ok" health reply.
const setupTimeout = 120 * time.Second

// daemon is one incgraphd process (plus, in cluster mode, the workers it
// spawns). Each runs in its own process group so that kill reaches the
// spawned workers too: a SIGKILLed coordinator does not stop them itself.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// live holds the daemons started and not yet killed, for killAll.
var live = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: make(map[*daemon]bool)}

// killAll kills every live daemon's process group.
func killAll() {
	live.Lock()
	defer live.Unlock()
	for d := range live.m {
		syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	}
}

// becomeSubreaper makes orphaned descendants — the workers of a killed
// coordinator — children of the harness, so kill can wait for them.
func becomeSubreaper() error {
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %v", errno)
	}
	return nil
}

// startDaemon execs bin with args plus a free loopback -addr and waits for
// the first "ok" health reply, returning the time that took.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, addr: addr, exited: make(chan struct{})}
	live.Lock()
	live.m[d] = true
	live.Unlock()
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	for {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			err := (&conn{c: c, r: bufio.NewReader(c)}).health()
			c.Close()
			if err == nil {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			d.kill()
			return nil, 0, fmt.Errorf("incgraphd exited during start-up (%v); its log ends:\n%s", cmd.ProcessState, logTail(logPath))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > setupTimeout {
			d.kill()
			return nil, 0, fmt.Errorf("incgraphd gave no ok health reply within %v; its log ends:\n%s", setupTimeout, logTail(logPath))
		}
	}
}

// logTail returns the last lines of a daemon log, which is removed with
// the run's directory.
func logTail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(b)
}

// group lists the live processes of the daemon's process group.
func (d *daemon) group() []int {
	pgid := d.cmd.Process.Pid
	ents, _ := os.ReadDir("/proc")
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesized command: state ppid pgrp ...
		i := bytes.LastIndexByte(stat, ')')
		f := strings.Fields(string(stat[i+1:]))
		if len(f) > 2 && f[0] != "Z" && f[2] == strconv.Itoa(pgid) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// peakRSSMB sums VmHWM, the peak resident set, over the process group.
func (d *daemon) peakRSSMB() float64 {
	var kb int64
	for _, pid := range d.group() {
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				n, _ := strconv.ParseInt(f[1], 10, 64)
				kb += n
			}
		}
	}
	return float64(kb) / 1024
}

// kill SIGKILLs the whole process group and waits until every member has
// ended: the daemon through its Wait, orphaned workers through wait4
// (they were reparented to the harness, a child subreaper).
func (d *daemon) kill() {
	members := d.group()
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
	live.Lock()
	delete(live.m, d)
	live.Unlock()
	for _, pid := range members {
		if pid == d.cmd.Process.Pid {
			continue
		}
		for {
			var ws syscall.WaitStatus
			_, err := syscall.Wait4(pid, &ws, 0, nil)
			if !errors.Is(err, syscall.EINTR) {
				break
			}
		}
	}
}

// conn is one line-protocol connection to the daemon.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 1<<16)}, nil
}

func (c *conn) close() { c.c.Close() }

func (c *conn) write(p []byte) error {
	c.c.SetDeadline(time.Now().Add(opTimeout))
	_, err := c.c.Write(p)
	return err
}

// line reads one reply line, without its newline. The bytes are valid
// until the next read.
func (c *conn) line() ([]byte, error) {
	l, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return l[:len(l)-1], nil
}

// do sends one command and returns its one-line reply.
func (c *conn) do(cmd string) (string, error) {
	if err := c.write([]byte(cmd + "\n")); err != nil {
		return "", err
	}
	l, err := c.line()
	return string(l), err
}

// expect reads one reply line and checks its prefix.
func (c *conn) expect(prefix string) error {
	l, err := c.line()
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(l, []byte(prefix)) {
		return fmt.Errorf("want %q, got %q", prefix, l)
	}
	return nil
}

// health sends "health" and checks the reply.
func (c *conn) health() error {
	if err := c.write([]byte("health\n")); err != nil {
		return err
	}
	return c.expect("ok ")
}

// commit sends a rendered batch (n staged lines and "commit") and checks
// every reply.
func (c *conn) commit(wire []byte, n int) error {
	if err := c.write(wire); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := c.expect("ok staged"); err != nil {
			return fmt.Errorf("stage: %w", err)
		}
	}
	if err := c.expect("ok applied"); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}

// query sends "query CLASS" and checks the reply.
func (c *conn) query(class string) error {
	if err := c.write([]byte("query " + class + "\n")); err != nil {
		return err
	}
	return c.expect("ok " + class + " ")
}

// answer appends to buf[:0] the dump "answer CLASS" serves, up to its
// final ".".
func (c *conn) answer(class string, buf []byte) ([]byte, error) {
	if err := c.write([]byte("answer " + class + "\n")); err != nil {
		return nil, err
	}
	if err := c.expect("ok " + class + " "); err != nil {
		return nil, fmt.Errorf("answer: %w", err)
	}
	dump := buf[:0]
	for start := true; ; {
		l, err := c.r.ReadSlice('\n')
		full := err == nil
		if !full && !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
		if start && full && string(l) == ".\n" {
			return dump, nil
		}
		dump = append(dump, l...)
		start = full
	}
}

// statCounters parses the named counters out of a "stat" reply.
func (c *conn) statCounters(names ...string) (map[string]float64, error) {
	s, err := c.do("stat")
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(s, "ok ") {
		return nil, fmt.Errorf("stat: %s", s)
	}
	out := make(map[string]float64, len(names))
	for _, f := range strings.Fields(s) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		for _, n := range names {
			if k == n {
				out[k], _ = strconv.ParseFloat(v, 64)
			}
		}
	}
	return out, nil
}
