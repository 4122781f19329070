package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incgraph"
)

// server multiplexes the line protocol over one Durable. Locking follows
// the substrate's read-parallel contract: commit and checkpoint take the
// write lock (mutation is exclusive), queries take the read lock and are
// served from the engines' generation-stamped answer caches, so
// connections read concurrently between commits. In cluster mode the
// remote phase 1 of a commit runs before the write lock is taken, so the
// wire round trips of one commit overlap with reads (and with the remote
// phase of other commits on disjoint shards); only the local durable
// apply is exclusive.
type server struct {
	mu sync.RWMutex
	d  *incgraph.Durable
	// cl, when non-nil, routes commits through the distributed two-phase
	// protocol (phase 1 on the shard workers, commit under s.mu). Guarded
	// by mu because promote installs one at runtime.
	cl *incgraph.Cluster
	// ckptBytes auto-checkpoints after a commit grows the WAL past it.
	ckptBytes int64
	byClass   map[string]incgraph.Maintained

	// lim is the overload posture; commitGate/readGate are its admission
	// gates (nil when ungated). See admission.go for the layer contract.
	lim        limits
	commitGate *gate
	readGate   *gate
	// commitMu serializes the durable half of every commit (WAL append +
	// in-memory apply + auto-checkpoint + standby feed) and the checkpoint
	// verb. The WAL fsync and checkpoint I/O run under it but OUTSIDE mu,
	// so a stalled disk backs up writers — who shed at the gate — while
	// readers keep answering. Lock order: commitMu before mu, always.
	commitMu sync.Mutex

	// HA primary state. hub, when non-nil, feeds every committed batch to
	// attached standbys; feedSeq numbers the feed stream and is updated
	// inside the same mu critical section as the graph mutation, so the
	// hub's snapshot callback reads a (seq, state) pair no committed batch
	// can fall between. commitMu orders single-process feeds (cluster-mode
	// feeds ride the coordinator's OnCommit hook, which is already
	// ordered).
	hub     *incgraph.ClusterHub
	feedSeq uint64

	// Cluster-stat cache: "stat" must answer in bounded time even with a
	// dead or stalled worker, so worker polls run at most once per statTTL,
	// in the background once a first result exists, and with a short
	// parallel poll timeout. Guarded by statMu.
	statMu    sync.Mutex
	statCache []incgraph.ClusterStat
	statAt    time.Time
	statBusy  bool

	// Durable-metadata mirror for stat/health. With the WAL fsync running
	// under commitMu outside mu, the store's counters mutate outside the
	// read lock; readers load these mirrors (refreshed by syncDurableMeta
	// after every durable mutation) instead of racing the store.
	walBytes atomic.Int64
	walSeq   atomic.Uint64
	epoch    atomic.Uint64

	// HA standby state (role == roleStandby until promote). tail tracks
	// the feed's liveness for the read path's staleness gate; standby,
	// tailConn, workerAddrs, and repl are what promote needs to attach a
	// coordinator at term+1. primaryAddr is where stale reads redirect.
	role        string
	standby     *incgraph.ClusterStandby
	tailConn    net.Conn
	tail        atomic.Int32
	primaryAddr string
	workerAddrs []string
	repl        incgraph.ReplPolicy
	// connMu/conns track live connections so shutdown can cut idle
	// readers instead of waiting for clients to hang up; nconns mirrors
	// len(conns) for the accept-time cap and "stat".
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	nconns atomic.Int64
	// Operational counters, exposed by "stat" so operators can see what
	// the logs saw: transient accept failures, and commits that failed
	// for operational reasons (cluster phase-1 failure, WAL trouble) —
	// batch-validation rejections are client input errors and are only
	// replied to, not counted or logged. The overload counters below track
	// every shed and deadline drop so graceful degradation is observable,
	// not silent.
	acceptErrs   atomic.Uint64
	commitErrs   atomic.Uint64
	connsShed    atomic.Uint64 // connections shed at accept (max-conns)
	stagedShed   atomic.Uint64 // stage commands refused at max-staged
	linesTooLong atomic.Uint64 // oversized protocol lines (replied, then cut)
	idleDrops    atomic.Uint64 // connections cut by the per-line read deadline
	clusterShed  atomic.Uint64 // commits shed by the cluster's shard-admission deadline

	// Disk-degradation state (doc.go "Overload & admission control" has
	// the matrix row). The commit path moves diskState healthy→retrying
	// when a WAL append fails and retries with capped backoff; a
	// persistently failing disk flips the daemon read-only — commits shed
	// with "err disk: degraded; read-only" while reads keep answering from
	// the in-memory state — and a background probe flips it back to
	// healthy the moment the append path works again. Retry and probe
	// tuning are fields, not constants, so drills run in milliseconds.
	diskState      atomic.Int32
	diskRetries    atomic.Uint64 // WAL appends retried after a disk error
	diskROEnters   atomic.Uint64 // transitions into read-only mode
	diskROExits    atomic.Uint64 // probe-healed transitions back to healthy
	diskShed       atomic.Uint64 // commits shed while read-only
	diskProbing    atomic.Bool   // the probe goroutine exists (started lazily, once)
	diskRetryMax   int           // WAL append attempts before going read-only
	diskBackoff    time.Duration // first retry delay (doubles, capped)
	diskProbeEvery time.Duration // read-only recovery probe interval
	diskQuit       chan struct{} // closed at shutdown; stops the probe
}

// maxLineBytes caps one protocol line (the scanner buffer limit). A line
// past it is answered with "err proto: line too long" and the connection
// is cut: the stream cannot be resynchronized mid-line.
const maxLineBytes = 1 << 20

// Error-reply grammar. Every error reply is one line of the form
//
//	err <category>: <detail>
//
// where <category> is a closed enum clients dispatch on; the detail text
// is human-oriented and may change between releases, the categories do
// not. Each category implies one recovery action:
//
//	overloaded  shed by admission control; nothing changed; retry after
//	            the hinted delay
//	disk        durability degraded (read-only mode, or a disk operation
//	            failed); nothing changed; retry after the hinted delay
//	fenced      this node's role or authority cannot serve the request
//	            (standby, deposed or stale replica, failed promotion) —
//	            redirect to the primary or promote, retrying here is
//	            useless
//	staged      the staging area refused the request, or the staged
//	            batch was rejected at commit and dropped — fix the batch
//	            and re-stage
//	idle        the per-line read deadline expired; the connection is cut
//	proto       the request could not be served as issued — malformed,
//	            unknown, inapplicable to this deployment, or an admin
//	            operation that failed without tripping the disk or
//	            admission machinery
type errCategory string

const (
	catOverloaded errCategory = "overloaded"
	catDisk       errCategory = "disk"
	catFenced     errCategory = "fenced"
	catStaged     errCategory = "staged"
	catIdle       errCategory = "idle"
	catProto      errCategory = "proto"
)

// replyErr sends one grammar-conformant error reply.
func replyErr(reply func(string, ...any) bool, cat errCategory, format string, args ...any) bool {
	return reply("err %s: %s", cat, fmt.Sprintf(format, args...))
}

// Cluster-stat cache tuning: results are fresh for statTTL; refresh polls
// run in parallel across workers with statPollTimeout each.
const (
	statTTL         = time.Second
	statPollTimeout = time.Second
)

// Serving roles. A standby is read-only until "promote" flips it.
const (
	rolePrimary = "primary"
	roleStandby = "standby"
)

// Disk states, for the degradation contract above.
const (
	diskHealthy int32 = iota
	diskRetrying
	diskReadOnly
)

// diskBackoffCap bounds the doubling retry backoff of logWithRetry.
const diskBackoffCap = 200 * time.Millisecond

// errDiskDegraded marks a commit refused because the disk went
// read-only: nothing was logged or applied, so the staged batch is kept
// and the client may simply retry "commit".
var errDiskDegraded = errors.New("disk degraded")

func diskName(s int32) string {
	switch s {
	case diskRetrying:
		return "retrying"
	case diskReadOnly:
		return "read-only"
	default:
		return "healthy"
	}
}

// Standby tail states, for the read path's staleness gate.
const (
	tailNone     int32 = iota // not a standby
	tailLive                  // feed attached, replica current
	tailDegraded              // primary gone; serving last durable generation
	tailStale                 // replica diverged from a live primary; redirect
)

func tailName(s int32) string {
	switch s {
	case tailLive:
		return "live"
	case tailDegraded:
		return "degraded"
	case tailStale:
		return "stale"
	default:
		return "none"
	}
}

func newServer(d *incgraph.Durable, cl *incgraph.Cluster, ckptBytes int64, lim limits) *server {
	byClass := make(map[string]incgraph.Maintained, len(d.Engines()))
	for _, m := range d.Engines() {
		byClass[m.Class()] = m
	}
	s := &server{d: d, cl: cl, ckptBytes: ckptBytes, byClass: byClass,
		lim:        lim,
		commitGate: newGate(lim.commitSlots, lim.commitQueue, lim.opTimeout),
		readGate:   newGate(lim.readSlots, lim.readQueue, lim.opTimeout),
		role:       rolePrimary, conns: make(map[net.Conn]struct{}),
		diskRetryMax:   3,
		diskBackoff:    5 * time.Millisecond,
		diskProbeEvery: 250 * time.Millisecond,
		diskQuit:       make(chan struct{})}
	s.syncDurableMeta()
	return s
}

// syncDurableMeta refreshes the durable-metadata mirror stat and health
// read. Call after any durable mutation, holding commitMu.
func (s *server) syncDurableMeta() {
	s.walBytes.Store(s.d.WALBytes())
	s.walSeq.Store(s.d.WALSeq())
	s.epoch.Store(s.d.Epoch())
}

// cluster returns the current coordinator (promote installs one late).
func (s *server) cluster() *incgraph.Cluster {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cl
}

// track registers or unregisters a live connection.
func (s *server) track(conn net.Conn, add bool) {
	s.connMu.Lock()
	if add {
		s.conns[conn] = struct{}{}
		s.nconns.Add(1)
	} else if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.nconns.Add(-1)
	}
	s.connMu.Unlock()
}

// closeConns cuts every live connection (shutdown path).
func (s *server) closeConns() {
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}

// serve accepts connections until a signal arrives, then closes the
// listener and the WAL. In-flight connections are cut; every acknowledged
// commit is already on disk, so an abrupt stop is as safe as a crash.
func (s *server) serve(addr string, stop <-chan struct{}) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", ln.Addr())
	done := make(chan struct{})
	go func() {
		<-stop
		close(done)
		ln.Close()
		// Abort any in-flight remote phase 1 before cutting connections:
		// closing the coordinator tears down its worker sessions, so a
		// commit blocked on a slow or dead worker fails immediately
		// instead of pinning the drain below for the full RPC deadline.
		// The commit was not acknowledged, so failing it is as safe as a
		// crash; the aborted shards resync on the next start.
		if cl := s.cluster(); cl != nil {
			cl.Close()
		}
		s.closeConns()
	}()
	var wg sync.WaitGroup
	backoff := 5 * time.Millisecond
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-done:
				wg.Wait()
				// The disk probe (not in wg) takes commitMu per tick; stop
				// it before the WAL closes under it.
				close(s.diskQuit)
				// commitMu too: a standby's feed goroutine (not in wg) may
				// be mid-apply; the WAL must not close under it.
				s.commitMu.Lock()
				defer s.commitMu.Unlock()
				s.mu.Lock()
				defer s.mu.Unlock()
				log.Printf("shutting down (gen %d, WAL seq %d)", s.d.Generation(), s.d.WALSeq())
				if s.cl != nil {
					s.cl.Close()
				}
				return s.d.Close()
			default:
			}
			// Transient accept failures (ECONNABORTED, EMFILE under a
			// connection burst) must not kill a long-lived daemon: back
			// off and retry; the condition clears as connections close.
			// Counted so "stat" exposes what the log line saw.
			s.acceptErrs.Add(1)
			log.Printf("accept: %v (retrying in %v)", err, backoff)
			select {
			case <-done:
				continue // drain via the shutdown branch above
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		// Accept-time shedding: past the connection cap, answer with an
		// explicit overload error instead of serving (or letting the
		// backlog grow). The check is racy by a handful of connections
		// under a burst — the cap is a defense, not an invariant.
		if s.lim.maxConns > 0 && int(s.nconns.Load()) >= s.lim.maxConns {
			s.connsShed.Add(1)
			go func(c net.Conn) {
				c.SetWriteDeadline(time.Now().Add(2 * time.Second))
				fmt.Fprintf(c, "err overloaded: connection limit %d reached; retry in %dms\n",
					s.lim.maxConns, retryHintMS)
				c.Close()
			}(conn)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *server) handle(conn net.Conn) {
	s.track(conn, true)
	defer func() {
		s.track(conn, false)
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes)
	out := bufio.NewWriter(conn)
	// Every flush runs under a write deadline: a client that stops
	// draining its socket is cut at the op timeout instead of holding the
	// handler goroutine (and whatever it has admitted) forever.
	flush := func() bool {
		if s.lim.opTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.lim.opTimeout))
			defer conn.SetWriteDeadline(time.Time{})
		}
		return out.Flush() == nil
	}
	reply := func(format string, args ...any) bool {
		fmt.Fprintf(out, format+"\n", args...)
		return flush()
	}
	var pending incgraph.Batch
	for {
		// Arm the per-line deadline when the wait for a line STARTS and do
		// not refresh it per byte: a byte-at-a-time slow-loris client hits
		// it exactly like an idle one.
		if s.lim.idle > 0 {
			conn.SetReadDeadline(time.Now().Add(s.lim.idle))
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "+", "-":
			u, err := parseUpdate(fields)
			if err != nil {
				if !replyErr(reply, catProto, "%v", err) {
					return
				}
				continue
			}
			if s.lim.maxStaged > 0 && len(pending) >= s.lim.maxStaged {
				s.stagedShed.Add(1)
				if !replyErr(reply, catStaged, "limit %d reached; commit or abort first", s.lim.maxStaged) {
					return
				}
				continue
			}
			pending = append(pending, u)
			if !reply("ok staged %d", len(pending)) {
				return
			}
		case "abort":
			n := len(pending)
			pending = nil
			if !reply("ok aborted %d", n) {
				return
			}
		case "commit":
			// A shed keeps the staged batch: "retry in 100ms" must mean
			// re-sending "commit", not re-staging everything.
			shed, alive := s.commit(pending, reply)
			if !alive {
				return
			}
			if !shed {
				pending = nil
			}
		case "query", "answer":
			if len(fields) != 2 {
				if !replyErr(reply, catProto, "usage: %s CLASS", fields[0]) {
					return
				}
				continue
			}
			if !s.read(fields[0], fields[1], conn, out, reply) {
				return
			}
		case "stat":
			if !s.stat(reply) {
				return
			}
		case "health":
			if !s.health(reply) {
				return
			}
		case "promote":
			if !s.promote(reply) {
				return
			}
		case "scrub":
			if !s.scrub(reply) {
				return
			}
		case "move":
			if !s.move(fields, reply) {
				return
			}
		case "checkpoint":
			// commitMu, not mu: snapshot writing only reads the graph (no
			// mutator runs without commitMu), so readers keep answering
			// while the checkpoint's I/O drains.
			s.commitMu.Lock()
			err := s.d.Checkpoint()
			s.syncDurableMeta()
			epoch := s.epoch.Load()
			s.commitMu.Unlock()
			if err != nil {
				if !replyErr(reply, catDisk, "checkpoint failed: %v", err) {
					return
				}
				continue
			}
			if !reply("ok checkpoint epoch=%d", epoch) {
				return
			}
		case "quit":
			reply("ok bye")
			return
		default:
			if !replyErr(reply, catProto, "unknown command %q", fields[0]) {
				return
			}
		}
	}
	// The scan ended without a clean quit: tell the client why before the
	// deferred close when we can, and count what happened.
	switch err := sc.Err(); {
	case err == nil:
		// EOF: client hung up.
	case errors.Is(err, bufio.ErrTooLong):
		// The stream cannot be resynchronized mid-line, so the connection
		// must die — but with an explicit reply first, not a silent cut.
		s.linesTooLong.Add(1)
		replyErr(reply, catProto, "line too long; max %d bytes per line", maxLineBytes)
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// Per-line read deadline: idle or slow-loris. The read side is
			// dead but the write side usually is not; say why we hung up.
			s.idleDrops.Add(1)
			replyErr(reply, catIdle, "no complete line in %v", s.lim.idle)
		}
	}
}

// commit applies one staged batch and reports ΔO per class, then
// auto-checkpoints past the WAL threshold. The path is gated (bounded
// commits in flight, bounded queue, bounded wait — excess load is shed
// with an explicit overload reply) and split so the WAL fsync runs under
// commitMu but outside the write lock: a stalled disk backs up committers,
// who shed at the gate, while readers keep answering from the caches.
// Cluster commits additionally run phase 1 over the wire before any lock
// (the coordinator serializes conflicting batches by shard, shedding at
// the per-op deadline) and take the write lock only for the in-memory
// apply.
//
// The returned shed is true when the batch was refused by admission
// control (nothing was applied; the caller keeps it staged so a bare
// retry works); alive is false when the connection died mid-reply.
func (s *server) commit(batch incgraph.Batch, reply func(string, ...any) bool) (shed, alive bool) {
	if len(batch) == 0 {
		return false, replyErr(reply, catStaged, "nothing staged")
	}
	s.mu.RLock()
	role, cl, hub := s.role, s.cl, s.hub
	s.mu.RUnlock()
	if role == roleStandby {
		return false, replyErr(reply, catFenced, "standby is read-only; promote to accept commits")
	}
	// Read-only disk mode sheds before admission: the batch stays staged
	// (a bare "commit" retry works once the probe heals the disk) and the
	// gate's slots stay free for the probe-driven recovery.
	if s.diskState.Load() == diskReadOnly {
		s.diskShed.Add(1)
		return true, replyErr(reply, catDisk, "degraded; read-only; retry in %dms", retryHintMS)
	}
	if s.commitGate.enter() != nil {
		return true, replyErr(reply, catOverloaded, "commit queue full; retry in %dms", retryHintMS)
	}
	sums, gen, err := s.commitAdmitted(batch, cl, hub)
	// Release the slot before any reply is written: a client that commits
	// again the moment it reads the reply must find the slot free, or the
	// retry the reply advertises would be shed.
	s.commitGate.exit()
	if err != nil {
		if errors.Is(err, incgraph.ErrClusterOverloaded) {
			s.clusterShed.Add(1)
			return true, replyErr(reply, catOverloaded, "shards busy past the op deadline; retry in %dms", retryHintMS)
		}
		if errors.Is(err, errDiskDegraded) {
			// The append retries were exhausted and the daemon just went
			// read-only. Nothing was logged or applied, so this commit is a
			// shed like the ones the read-only check above refuses: the
			// batch stays staged and the same reply tells the client why.
			s.diskShed.Add(1)
			return true, replyErr(reply, catDisk, "degraded; read-only; retry in %dms", retryHintMS)
		}
		if errors.Is(err, incgraph.ErrClusterFenced) {
			// A worker at a higher fencing term refused phase 1: this
			// coordinator was deposed. The batch was not applied anywhere.
			return false, replyErr(reply, catFenced, "commit rejected: %v", err)
		}
		if !errors.Is(err, incgraph.ErrBadUpdate) {
			s.commitErrs.Add(1)
			log.Printf("commit failed: %v", err)
		}
		return false, replyErr(reply, catStaged, "commit failed: %v", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "ok applied %d gen=%d", len(batch), gen)
	for i, m := range s.d.Engines() {
		fmt.Fprintf(&sb, " %s=%s", m.Class(), sums[i])
	}
	return false, reply("%s", sb.String())
}

// commitAdmitted runs an admitted commit through Durable.Commit — the
// cluster or the single-process schedule — and returns ΔO per class and
// the generation the batch produced. It writes no reply.
func (s *server) commitAdmitted(batch incgraph.Batch, cl *incgraph.Cluster, hub *incgraph.ClusterHub) (sums []incgraph.DeltaSummary, gen uint64, err error) {
	var deadline time.Time
	if s.lim.opTimeout > 0 {
		deadline = time.Now().Add(s.lim.opTimeout)
	}
	var preGen, seq uint64
	// Both deployment shapes drive Durable.Commit through the same two
	// hooks. logHook swaps the bare WAL append for the disk-degradation
	// retry loop; applyHook wraps the in-memory apply with the read lock,
	// the hub's feed numbering, and the auto-checkpoint. Neither takes
	// commitMu itself: the cluster case wraps each in it (the coordinator
	// calls them at separate points of its pipelined schedule), the local
	// case holds it around the whole Commit call.
	logHook := func(b incgraph.Batch, genAt uint64) error {
		preGen = genAt
		if lerr := s.logWithRetry(b, genAt); lerr != nil {
			s.syncDurableMeta()
			return lerr
		}
		return nil
	}
	applyHook := func(apply func() error) error {
		s.mu.Lock()
		aerr := apply()
		if aerr == nil && hub != nil {
			// Numbered inside the critical section so the hub's snapshot
			// callback sees seq and graph state move together.
			s.feedSeq++
			seq = s.feedSeq
		}
		var walBytes int64
		gen, walBytes = s.d.Generation(), s.d.WALBytes()
		s.mu.Unlock()
		if aerr == nil && s.ckptBytes > 0 && walBytes > s.ckptBytes {
			// Checkpoint I/O under commitMu only: snapshot writing reads
			// the graph, which is safe alongside concurrent readers.
			if cerr := s.d.Checkpoint(); cerr != nil {
				log.Printf("auto-checkpoint failed: %v", cerr)
			} else {
				log.Printf("auto-checkpoint at WAL %d bytes (epoch %d)", walBytes, s.d.Epoch())
			}
		}
		s.syncDurableMeta()
		return aerr
	}
	switch {
	case cl != nil:
		// Cluster mode: the coordinator plans and validates the batch,
		// pipelines the WAL append (logHook) alongside phase 1, and calls
		// the apply hook inside its serialized commit section — where its
		// OnCommit hook (wired to the hub's Feed in main) runs the standby
		// feed in commit order while the batch's shards are still held.
		// The coordinator's log mutex serializes logHook-through-applyHook
		// windows across batches, so taking commitMu separately in each
		// hook cannot invert WAL order against commit order. The per-op
		// deadline caps both the shard-admission wait and the phase-1
		// remote round trips.
		sums, err = s.d.Commit(batch, incgraph.ApplyOptions{
			Via:      cl,
			Deadline: deadline,
			Log: func(b incgraph.Batch, genAt uint64) error {
				s.commitMu.Lock()
				defer s.commitMu.Unlock()
				return logHook(b, genAt)
			},
			Exclusive: func(apply func() error) error {
				s.commitMu.Lock()
				defer s.commitMu.Unlock()
				return applyHook(apply)
			},
		})
	default:
		// Single process: commitMu around the whole validate+log+apply
		// keeps WAL order equal to commit order, and (with standbys) the
		// post-apply feed in commit order too — s.mu alone would let two
		// committers' post-unlock feeds invert.
		s.commitMu.Lock()
		sums, err = s.d.Commit(batch, incgraph.ApplyOptions{
			Log:       logHook,
			Exclusive: applyHook,
		})
		if err == nil && hub != nil {
			hub.Feed(seq, preGen, gen, batch)
		}
		s.commitMu.Unlock()
	}
	return sums, gen, err
}

// logWithRetry is the WAL append under the disk-degradation contract:
// a failed append is retried with capped exponential backoff (a wedged
// WAL is first healed by a checkpoint, which starts a fresh log), and
// exhausting the retries flips the daemon into read-only mode and
// returns errDiskDegraded. Nothing is acknowledged unless the append
// truly succeeded — the WAL itself rolls back seq and truncates on
// failure, so "acked ⇒ durable" holds across every retry. The caller
// holds commitMu and has already validated the batch (Durable.Commit
// plans or validates before its Log hook runs), so the append is
// LogPlanned with the caller's generation stamp.
func (s *server) logWithRetry(b incgraph.Batch, gen uint64) error {
	err := s.d.LogPlanned(b, gen)
	if err == nil {
		return nil
	}
	backoff := s.diskBackoff
	for attempt := 1; attempt < s.diskRetryMax; attempt++ {
		s.diskState.CompareAndSwap(diskHealthy, diskRetrying)
		s.diskRetries.Add(1)
		log.Printf("WAL append failed (attempt %d/%d, retrying in %v): %v",
			attempt, s.diskRetryMax, backoff, err)
		time.Sleep(backoff)
		if backoff *= 2; backoff > diskBackoffCap {
			backoff = diskBackoffCap
		}
		if s.d.WALBroken() != nil {
			// A mid-append failure wedges the WAL (its tail is suspect);
			// only a checkpoint — snapshot plus fresh log — clears it.
			// commitMu is held, so the checkpoint cannot race a commit.
			if cerr := s.d.Checkpoint(); cerr != nil {
				err = cerr
				continue
			}
		}
		if err = s.d.LogPlanned(b, gen); err == nil {
			s.diskState.CompareAndSwap(diskRetrying, diskHealthy)
			return nil
		}
	}
	s.enterReadOnly(err)
	return fmt.Errorf("%w: %v", errDiskDegraded, err)
}

// enterReadOnly flips the daemon into read-only mode and makes sure the
// recovery probe is running. Reads keep answering from the in-memory
// state (it is consistent: failed appends were rolled back, nothing
// unacknowledged was applied); commits shed until the probe heals.
func (s *server) enterReadOnly(cause error) {
	s.diskState.Store(diskReadOnly)
	s.diskROEnters.Add(1)
	log.Printf("disk degraded; entering read-only mode: %v", cause)
	if s.diskProbing.CompareAndSwap(false, true) {
		go s.probeDisk()
	}
}

// probeDisk is the read-only recovery loop: while the daemon is
// read-only it exercises the WAL append path (checkpoint if the WAL is
// wedged, fsync otherwise) once per diskProbeEvery, and the first
// success flips the daemon back to healthy — recovery is automatic, no
// restart and no operator action. The goroutine is started once, on the
// first degradation, and idles between incidents until shutdown.
func (s *server) probeDisk() {
	t := time.NewTicker(s.diskProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-s.diskQuit:
			return
		case <-t.C:
		}
		if s.diskState.Load() != diskReadOnly {
			continue
		}
		s.commitMu.Lock()
		var err error
		if s.d.WALBroken() != nil {
			err = s.d.Checkpoint()
		} else {
			err = s.d.SyncWAL()
		}
		s.syncDurableMeta()
		s.commitMu.Unlock()
		if err == nil && s.diskState.CompareAndSwap(diskReadOnly, diskHealthy) {
			s.diskROExits.Add(1)
			log.Printf("disk recovered; leaving read-only mode")
		}
	}
}

// read serves "query" (cardinality) and "answer" (full canonical dump).
// The read gate and the read lock cover only the in-memory render — never
// the socket writes, so a stalled client can't hold a slot or the lock
// and wedge commits (and, through the RWMutex writer queue, every other
// reader).
func (s *server) read(cmd, class string, conn net.Conn, out *bufio.Writer, reply func(string, ...any) bool) bool {
	// Replica-read gate: a standby serves reads while its feed is live
	// (the replica is provably current) and keeps serving from the last
	// durable generation when the primary is gone — but a replica that
	// diverged from a live primary redirects instead of answering wrong.
	if s.tail.Load() == tailStale {
		return replyErr(reply, catFenced, "stale replica; redirect %s", s.primaryAddr)
	}
	m, ok := s.byClass[class]
	if !ok {
		return replyErr(reply, catProto, "no standing query for class %q", class)
	}
	if s.readGate.enter() != nil {
		return replyErr(reply, catOverloaded, "read queue full; retry in %dms", retryHintMS)
	}
	s.mu.RLock()
	size := m.Size()
	var dump bytes.Buffer
	var err error
	if cmd == "answer" {
		err = m.WriteAnswer(&dump)
	}
	s.mu.RUnlock()
	s.readGate.exit()
	if err != nil {
		return reply("err answer %s: %v", class, err)
	}
	if !reply("ok %s %d", class, size) {
		return false
	}
	if cmd == "query" {
		return true
	}
	// The dump can be many buffer-fulls; the whole drain runs under one
	// write deadline so a stalled client is cut at the op timeout.
	if s.lim.opTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.lim.opTimeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	if _, err := out.Write(dump.Bytes()); err != nil {
		return false
	}
	fmt.Fprintln(out, ".")
	return out.Flush() == nil
}

func (s *server) stat(reply func(string, ...any) bool) bool {
	classes := make([]string, 0, len(s.d.Engines()))
	for _, m := range s.d.Engines() {
		classes = append(classes, m.Class())
	}
	// Render under the read lock, write to the socket after (see read).
	// Durable metadata comes from the mirror: the WAL mutates under
	// commitMu, not mu, so the store itself must not be read here.
	s.mu.RLock()
	g := s.d.Graph()
	role, cl, hub := s.role, s.cl, s.hub
	line := fmt.Sprintf("ok role=%s nodes=%d edges=%d gen=%d shards=%d epoch=%d walseq=%d walbytes=%d classes=%s",
		role, g.NumNodes(), g.NumEdges(), g.Generation(), g.NumShards(),
		s.epoch.Load(), s.walSeq.Load(), s.walBytes.Load(), strings.Join(classes, ","))
	s.mu.RUnlock()
	// Error counters: what the accept-loop and commit-path logs saw, as
	// machine-readable fields (the crash drill asserts their presence).
	line += fmt.Sprintf(" accept_errs=%d commit_errs=%d", s.acceptErrs.Load(), s.commitErrs.Load())
	// Overload counters: every shed, refused stage, oversized line and
	// deadline drop, so graceful degradation is observable, not silent.
	line += fmt.Sprintf(" conns=%d conns_shed=%d staged_shed=%d lines_too_long=%d idle_drops=%d",
		s.nconns.Load(), s.connsShed.Load(), s.stagedShed.Load(),
		s.linesTooLong.Load(), s.idleDrops.Load())
	ca, cs, ct := s.commitGate.stats()
	ra, rs, rt := s.readGate.stats()
	line += fmt.Sprintf(" commit_admitted=%d commit_shed=%d commit_timeouts=%d commit_cluster_shed=%d read_admitted=%d read_shed=%d read_timeouts=%d",
		ca, cs, ct, s.clusterShed.Load(), ra, rs, rt)
	// Disk-degradation state and counters: every retried append and every
	// read-only transition is observable, not just logged.
	line += fmt.Sprintf(" disk=%s disk_retries=%d disk_ro_enters=%d disk_ro_exits=%d disk_shed=%d",
		diskName(s.diskState.Load()), s.diskRetries.Load(),
		s.diskROEnters.Load(), s.diskROExits.Load(), s.diskShed.Load())
	// Process runtime gauges, for the load generator's soak sampler.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	line += fmt.Sprintf(" goroutines=%d heap_bytes=%d", runtime.NumGoroutine(), ms.HeapAlloc)
	if cl != nil {
		sts, age := s.cachedClusterStats(cl)
		up, retries := 0, uint64(0)
		var replicated, gaps uint64
		for _, st := range sts {
			if !st.Down {
				up++
			}
			retries += st.Retries
			replicated += st.Remote.Replicated
			gaps += st.Remote.ReplGaps
		}
		line += fmt.Sprintf(" cluster_workers=%d/%d cluster_applied=%d cluster_remote_errs=%d cluster_resyncs=%d cluster_retries=%d cluster_term=%d stat_age_ms=%d",
			up, cl.NumWorkers(), cl.Applied(), cl.RemoteErrors(), cl.Resyncs(), retries, cl.Term(), age.Milliseconds())
		line += fmt.Sprintf(" repl=%s repl_seq=%d repl_shipped=%d repl_degraded=%d repl_replicated=%d repl_gaps=%d",
			s.repl, cl.ReplSeq(), cl.ReplShipped(), cl.ReplDegraded(), replicated, gaps)
		sc := cl.ScrubCounters()
		line += fmt.Sprintf(" scrub_passes=%d scrub_checked=%d scrub_mismatches=%d scrub_heals=%d scrub_skips=%d",
			sc.Passes, sc.Checked, sc.Mismatches, sc.Heals, sc.Skips)
	}
	if hub != nil {
		line += fmt.Sprintf(" standbys=%d", hub.Standbys())
	}
	if st := s.standby; st != nil {
		line += fmt.Sprintf(" tail=%s tail_term=%d tail_seq=%d tail_gen=%d",
			tailName(s.tail.Load()), st.Term(), st.LastSeq(), st.Gen())
	}
	return reply("%s", line)
}

// cachedClusterStats answers stat's worker section from a bounded-
// staleness cache: polls run at most once per statTTL, in parallel across
// workers with statPollTimeout each, and in the background once a first
// result exists — so "stat" stays cheap and bounded even while a worker
// is dead or stalled (exactly when operators run it in a tight loop).
func (s *server) cachedClusterStats(cl *incgraph.Cluster) ([]incgraph.ClusterStat, time.Duration) {
	s.statMu.Lock()
	if s.statCache != nil && time.Since(s.statAt) < statTTL {
		st, age := s.statCache, time.Since(s.statAt)
		s.statMu.Unlock()
		return st, age
	}
	if s.statBusy {
		// A refresh is already in flight; serve the stale cache rather
		// than stack a second poll (or a wait) on top of it.
		st, age := s.statCache, time.Since(s.statAt)
		s.statMu.Unlock()
		return st, age
	}
	s.statBusy = true
	first := s.statCache == nil
	s.statMu.Unlock()
	refresh := func() []incgraph.ClusterStat {
		st := cl.StatsWithin(statPollTimeout)
		s.statMu.Lock()
		s.statCache, s.statAt, s.statBusy = st, time.Now(), false
		s.statMu.Unlock()
		return st
	}
	if first {
		// No result yet: poll synchronously — still bounded by the poll
		// timeout — so the very first stat is not empty.
		return refresh(), 0
	}
	go refresh()
	s.statMu.Lock()
	st, age := s.statCache, time.Since(s.statAt)
	s.statMu.Unlock()
	return st, age
}

// health is the cheap liveness probe: one line of role and position, no
// worker polling (stat's per-worker poll can take seconds during an
// incident, exactly when probes must not).
func (s *server) health(reply func(string, ...any) bool) bool {
	s.mu.RLock()
	role, cl, hub := s.role, s.cl, s.hub
	gen, walSeq := s.d.Generation(), s.walSeq.Load()
	s.mu.RUnlock()
	line := fmt.Sprintf("ok role=%s gen=%d walseq=%d disk=%s",
		role, gen, walSeq, diskName(s.diskState.Load()))
	if cl != nil {
		line += fmt.Sprintf(" term=%d", cl.Term())
	}
	if hub != nil {
		line += fmt.Sprintf(" standbys=%d", hub.Standbys())
	}
	if s.standby != nil {
		line += fmt.Sprintf(" tail=%s tail_seq=%d", tailName(s.tail.Load()), s.standby.LastSeq())
	}
	return reply("%s", line)
}

// scrub runs one anti-entropy pass over every shard (cluster mode only):
// each worker replica is verified byte-for-byte against the
// coordinator-authoritative state — parcel bytes and the on-disk replica
// log — and any divergent shard is re-placed from the authoritative
// parcel. Busy shards are skipped, not waited for, so the pass is
// bounded even under commit load.
func (s *server) scrub(reply func(string, ...any) bool) bool {
	cl := s.cluster()
	if cl == nil {
		return replyErr(reply, catProto, "scrub: not in cluster mode")
	}
	rep, err := cl.Scrub()
	if err != nil {
		return replyErr(reply, catProto, "scrub failed: %v", err)
	}
	return reply("ok scrub checked=%d skipped=%d mismatches=%d heals=%d",
		rep.Checked, rep.Skipped, rep.Mismatches, rep.Heals)
}

// move re-places one shard onto another worker by shipping its snapshot
// segment (cluster mode only) — the rebalance drills drive it under
// live commit traffic.
func (s *server) move(fields []string, reply func(string, ...any) bool) bool {
	cl := s.cluster()
	if cl == nil {
		return replyErr(reply, catProto, "move: not in cluster mode")
	}
	if len(fields) != 3 {
		return replyErr(reply, catProto, "usage: move SHARD WORKER")
	}
	shard, err1 := strconv.Atoi(fields[1])
	w, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil {
		return replyErr(reply, catProto, "usage: move SHARD WORKER")
	}
	if err := cl.MoveShard(shard, w); err != nil {
		return replyErr(reply, catProto, "move failed: %v", err)
	}
	return reply("ok moved shard=%d worker=%d", shard, w)
}

// promote flips a standby into a primary: the replica's durable state
// becomes authoritative, and if shard-worker addresses were configured a
// coordinator is attached over them at the deposed primary's term+1 —
// re-placing every shard and fencing the old coordinator's sessions.
// Reads block for the attach (it ships shard segments); promotion is a
// failover moment, not a steady-state operation.
func (s *server) promote(reply func(string, ...any) bool) bool {
	// commitMu first: a feed apply holds it for its whole body, so once we
	// have it no fed batch can slip in after the role check below.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	if s.role != roleStandby {
		s.mu.Unlock()
		return replyErr(reply, catFenced, "already primary")
	}
	// Cut the tail first so a live feed cannot race the role flip; the
	// apply callback also rejects feeds once the role is primary.
	if s.tailConn != nil {
		s.tailConn.Close()
	}
	term := s.standby.Term() + 1
	var links []incgraph.ClusterLink
	for _, a := range s.workerAddrs {
		link, err := incgraph.DialClusterWorker(a)
		if err != nil {
			s.mu.Unlock()
			return replyErr(reply, catFenced, "promote failed: worker %s: %v", a, err)
		}
		links = append(links, link)
	}
	if len(links) > 0 {
		cl, err := incgraph.NewCluster(s.d.Graph(), links,
			incgraph.WithClusterTerm(term), incgraph.WithReplication(s.repl))
		if err != nil {
			for _, l := range links {
				l.Conn.Close()
			}
			s.mu.Unlock()
			return replyErr(reply, catFenced, "promote failed: %v", err)
		}
		s.cl = cl
	}
	s.role = rolePrimary
	s.tail.Store(tailNone)
	s.mu.Unlock()
	log.Printf("promoted to primary at term %d (%d workers)", term, len(links))
	return reply("ok promoted term=%d workers=%d", term, len(links))
}

// parseUpdate decodes "+ v w [vlabel wlabel]" / "- v w" (the update-file
// format of cmd/incgraph).
func parseUpdate(fields []string) (incgraph.Update, error) {
	if len(fields) < 3 {
		return incgraph.Update{}, fmt.Errorf("want '+|- v w [vlabel wlabel]'")
	}
	v, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return incgraph.Update{}, fmt.Errorf("bad source id: %v", err)
	}
	w, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return incgraph.Update{}, fmt.Errorf("bad target id: %v", err)
	}
	if fields[0] == "-" {
		return incgraph.Del(incgraph.NodeID(v), incgraph.NodeID(w)), nil
	}
	vl, wl := "", ""
	if len(fields) > 3 {
		vl = fields[3]
	}
	if len(fields) > 4 {
		wl = fields[4]
	}
	return incgraph.InsNew(incgraph.NodeID(v), incgraph.NodeID(w), vl, wl), nil
}
