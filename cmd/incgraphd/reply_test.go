package main

// Tests of the reply-flush rule of handle: replies are buffered and
// flushed once, before the handler reads the socket again. Pipelined
// lines must get exactly the replies lock-step lines get, a lock-step
// client must never wait on a reply still in the buffer, and a client
// that pipelines without ever reading must be cut at the op timeout like
// any other stalled reader.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// stageAndCommit is 16 staged insertions between fresh nodes and a commit.
func stageAndCommit() []string {
	lines := make([]string, 0, 17)
	for i := 0; i < 16; i++ {
		lines = append(lines, fmt.Sprintf("+ %d %d a b", 9000+2*i, 9001+2*i))
	}
	return append(lines, "commit")
}

// TestPipelinedRepliesMatchLockStep sends one batch to two identical
// servers: in one write to the first, and line by line, waiting for each
// reply, to the second. Both must complete, and the reply bytes must be
// identical.
func TestPipelinedRepliesMatchLockStep(t *testing.T) {
	lines := stageAndCommit()
	lim := limits{idle: 10 * time.Second, opTimeout: 5 * time.Second}

	_, addrP := testServer(t, lim)
	p := dialLine(t, addrP)
	defer p.close()
	p.conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.WriteString(p.conn, strings.Join(lines, "\n")+"\n"); err != nil {
		t.Fatal(err)
	}
	var pipelined strings.Builder
	for range lines {
		reply, err := p.r.ReadString('\n')
		if err != nil {
			t.Fatalf("pipelined reply %d: %v", pipelined.Len(), err)
		}
		pipelined.WriteString(reply)
	}

	_, addrL := testServer(t, lim)
	l := dialLine(t, addrL)
	defer l.close()
	l.conn.SetDeadline(time.Now().Add(20 * time.Second))
	var lockStep strings.Builder
	for _, line := range lines {
		lockStep.WriteString(l.raw(t, line) + "\n")
	}

	if pipelined.String() != lockStep.String() {
		t.Fatalf("pipelined replies differ from lock-step ones:\n%s\nvs\n%s", pipelined.String(), lockStep.String())
	}
	want := ""
	for i := 1; i <= 16; i++ {
		want += fmt.Sprintf("ok staged %d\n", i)
	}
	if !strings.HasPrefix(pipelined.String(), want+"ok applied 16 gen=") {
		t.Fatalf("replies =\n%s", pipelined.String())
	}
	// The connections stay usable after the batch: a quit is answered.
	if reply := p.cmd(t, "quit"); reply != "ok bye" {
		t.Fatalf("quit reply %q", reply)
	}
}

// TestNonReadingPipelinerCutAtOpTimeout: a client that streams lines and
// never reads its replies fills the socket buffers until the handler's
// reply write stalls. The write deadline must cut it, the handler must
// exit, and the server must keep serving others.
func TestNonReadingPipelinerCutAtOpTimeout(t *testing.T) {
	srv, addr := testServer(t, limits{opTimeout: 300 * time.Millisecond})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A small receive buffer makes the replies back up sooner.
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))

	// Staged-then-aborted pairs: the replies pile up, the staged batch
	// does not.
	var chunk strings.Builder
	for chunk.Len() < 64<<10 {
		chunk.WriteString("+ 9000 9001 a b\nabort\n")
	}
	start := time.Now()
	w := bufio.NewWriter(conn)
	for {
		if _, err = w.WriteString(chunk.String()); err == nil {
			err = w.Flush()
		}
		if err != nil {
			break
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server never cut the non-reading client (client write timed out after %v)", time.Since(start))
	}
	waitFor(t, "handler of the cut client exits", func() bool { return srv.nconns.Load() == 0 })

	c := dialLine(t, addr)
	defer c.close()
	c.cmd(t, "health")
}
