// Package incgraph is a Go implementation of the incremental graph
// computations of Fan, Hu & Tian, "Incremental Graph Computations: Doable
// and Undoable" (SIGMOD 2017).
//
// The paper shows that the incremental problems for four common graph query
// classes — regular path queries (RPQ), strongly connected components
// (SCC), keyword search (KWS) and subgraph isomorphism (ISO) — are
// unbounded: no incremental algorithm can run in time polynomial in the
// size of the changes alone. It then shows the situation is not hopeless,
// via two weaker-but-practical guarantees, and this library implements all
// of the corresponding algorithms:
//
//   - KWS and ISO are localizable: IncKWS and IncISO touch only the
//     d_Q-neighborhood of the updated edges (Section 4).
//   - RPQ and SCC are relatively bounded: IncRPQ and IncSCC touch only the
//     affected area AFF of their batch algorithms RPQ_NFA and Tarjan
//     (Section 5).
//
// # Performance substrate
//
// internal/graph is built for the hot paths of the incremental engines:
//
//   - Node labels are interned process-wide into uint32 LabelIDs
//     (InternLabel / LabelIDOf / LabelOf) and every graph maintains an
//     inverted label→sorted-nodes index, so NodesWithLabel is an index
//     lookup, not an O(|V|) scan, and the VF2/KWS/RPQ inner loops compare
//     integer IDs instead of strings. Invariant: relabeling a node
//     (AddNode on an existing ID) updates the inverted index atomically
//     with the label.
//   - The node space is sharded: nodes hash into a power-of-two number of
//     partitions (Graph.SetShards, default sized to the core count), each
//     owning its slice of the node table, its dense-slot allocator, and
//     the adjacency of its nodes, with cross-shard edges recorded on both
//     endpoint shards. Large batches then apply shard-parallel inside
//     ApplyBatch: phase 1 hands each shard's owned effects to a worker,
//     phase 2 merges label-index and edge-count deltas serially in shard
//     order, so the result is byte-identical to a serial application.
//     Per-shard iteration hooks (ShardNodes, ShardNodesSorted,
//     NodesSortedParallel, Batch.TouchedShards) let the engines collect
//     and partition work along the same boundaries.
//   - Answers that are expensive to materialize but stable between
//     updates — Graph.EdgesSorted, KWSIndex.MatchRoots,
//     RPQEngine.Matches, ISOIndex.Matches — are memoized against the
//     graph's mutation generation (Graph.Generation): repeated reads
//     between updates are O(1), and any mutation implicitly invalidates
//     them. The returned slices are shared; treat them as read-only.
//   - The canonical answer bytes of all four classes
//     (Maintained.WriteAnswer) are memoized the same way, rendered lazily
//     with strconv into one exactly sized buffer: the first read after a
//     commit pays an O(|Q(G)|) render, later reads in that generation pay
//     a copy, and commits do no render work. SCC renders without sorting
//     its partition: one pass over the ascending node IDs buckets each
//     node into its component's run, reserved when the component is first
//     seen, which yields components by smallest member with members
//     ascending.
//   - Adjacency is hybrid: sorted []NodeID slices for low-degree nodes,
//     promoted to hash sets past a degree threshold (with hysteresis on
//     the way back down). Iteration is a cache-friendly linear scan and
//     SuccessorsSorted returns the storage itself — allocation-free, but
//     borrowed: valid only until the next mutation of that node.
//   - The traversal kernels (BFSFrom, ReverseBFSFrom, ForEachWithin,
//     Reaches, UndirectedComponents) run on buffers from a lock-free
//     worker-keyed scratch pool: an epoch-stamped visited array over dense
//     node slots plus reusable queues, so a warm graph traverses without
//     allocating, and concurrent or nested traversals each check out their
//     own buffer.
//
// # Concurrency and parallelism
//
// The engine is multi-core end to end, built on one contract: mutating a
// graph (AddNode, AddEdge, Apply, ...) requires exclusive access, while
// between mutations any number of goroutines may read and traverse it
// concurrently once Graph.PrepareConcurrentReads has run after the last
// mutation. The KWS/RPQ/ISO engines call it themselves whenever
// Parallelism() > 1; after hand-rolled mutations, at Parallelism() == 1,
// or behind the sequential SCC engine, call it yourself before sharing
// reads.
//
// On top of that split, the batch builds fan out — NewKWS per keyword,
// NewRPQ per source node, NewISO/FindMatches over partitioned VF2 candidate
// seeds — and the incremental Apply methods of KWS, RPQ and ISO apply ΔG
// through the shard-parallel ApplyBatch, then partition their repair work
// (affected keywords, affected sources, anchored insertions) across a
// worker pool. Per-worker results merge deterministically, so answers and
// deltas are byte-identical to a sequential run at any worker or shard
// count.
//
// KWS and ISO additionally route each batch through a cost model
// (internal/cost): when the predicted affected area makes the incremental
// repair costlier than the batch algorithm — the regime past the paper's
// incremental/batch crossover — Apply falls back to applying ΔG and
// recomputing from scratch, diffing the match sets for the exact same
// Delta. The decision is a pure function of graph and batch statistics,
// never of worker or shard count.
//
// Graph.SetParallelism(n) bounds the worker pool; the default is
// runtime.GOMAXPROCS(0), and n = 1 forces fully sequential execution.
// Clones inherit the setting, so configuring the base graph configures
// every engine built on it.
//
// # Durability
//
// The maintained state survives restarts (internal/store, surfaced here
// as Durable):
//
//   - Snapshots. WriteSnapshot serializes the graph in a versioned binary
//     format, one independently-encoded segment per shard behind a
//     manifest header (shard count, generation, label table, per-segment
//     CRC-32). Segments encode and load in parallel, and a load restores
//     the graph exactly — node set, labels, adjacency, dense-slot
//     assignment, mutation generation — so engines built on a loaded
//     graph behave byte-identically to engines built on the original.
//     The format is versioned by a magic+version header; readers reject
//     unknown versions rather than guessing.
//   - Write-ahead log. A Durable validates each batch ΔG, appends it to a
//     length+CRC-framed log, and only then applies it to the graph and the
//     attached engines. The fsync policy is explicit: SyncAlways (the
//     default) makes every acknowledged batch survive power failure;
//     SyncNone trades bounded loss for append throughput.
//   - Recovery. OpenDurable loads the snapshot, the caller rebuilds its
//     engines on clones of it, and Recover replays the WAL's valid record
//     prefix through the engines' normal Apply path — repairs run exactly
//     as they did the first time, so every answer (Maintained.WriteAnswer)
//     is byte-identical to the uninterrupted run, at any worker or shard
//     count. A torn or corrupt WAL tail — the signature of a crash mid-
//     append — is truncated, never fatal.
//   - Checkpoints. Checkpoint folds the log into a fresh snapshot under a
//     new epoch and commits the pair via an atomically-renamed manifest;
//     a crash at any instant leaves either the old pair or the new pair
//     fully intact.
//
// cmd/incgraphd is the long-lived server built on this subsystem: it
// ingests "+/-" update streams over a line protocol, serves rpq/kws/scc/
// iso answers from the generation-stamped caches under the read-parallel
// contract, and checkpoints on demand or past a WAL-size threshold. The
// CLI tools accept .snap files anywhere a text graph is accepted
// (LoadGraphFile sniffs the format).
//
// # Distribution
//
// The substrate outgrows one process along the boundary it was sharded
// on (internal/cluster, surfaced here as Cluster/ClusterWorker):
//
//   - Coordinator/worker contract. Shard worker processes each hold
//     authoritative replicas of a subset of the graph's shards — node
//     records, slot allocators, adjacency, nothing graph-global — behind
//     a length+CRC-framed RPC protocol (the WAL's framing). The
//     coordinator keeps the authoritative full graph: batches are
//     validated and planned there, the engines and the Durable live
//     there, and shard placement/rebalancing ship the snapshot's
//     per-shard segments (the wire format the store was designed around).
//   - Determinism. A distributed Apply is ApplyBatch's existing two-phase
//     protocol stretched over the network: phase 1 ships each shard's
//     slice of the validated plan to its owning worker, in parallel;
//     phase 2 — the commit callback — merges deltas in shard order
//     locally, cross-checked against the plan. The result (graph bytes,
//     engine deltas, canonical answers) is byte-identical to the
//     single-process application; the differential tests pin
//     cluster(workers=2) ≡ single-process for all four query classes,
//     mid-stream rebalance included.
//   - Failure. A batch commits only after every involved worker
//     acknowledged phase 1. A worker failure mid-batch aborts the commit
//     atomically — nothing is logged or applied locally — and every shard
//     the batch planned to touch is re-shipped from the authoritative
//     segments before its next use; a restarted worker is reattached and
//     rebuilt the same way. Batches whose TouchedShards sets are disjoint
//     are routed concurrently.
//   - One write path. Durable.Commit(b, ApplyOptions{...}) is the single
//     apply entry point, local and distributed: the zero ApplyOptions is
//     the plain durable apply, Via routes the batch through a Cluster,
//     Deadline carries the serving layer's per-op budget, and the
//     Log/Exclusive hooks splice in the serving tier's degradation and
//     read-exclusion policies. The older Durable.Apply/ApplyVia and
//     Cluster construction variants remain as deprecated wrappers over
//     this path.
//   - Pipelined commit. The distributed hop prices close to the local
//     one (the benchcmp gate pins the 2-worker/single-process geomean)
//     because the protocol ships the already-validated plan zero-copy —
//     effects encode straight off the planner's pooled state, and
//     interned label tables travel once per session as deltas — overlaps
//     the WAL append with the phase-1 round trips (log order still equals
//     commit order, so the WAL bytes are identical to the serial path),
//     and coalesces concurrent batches' shares into one frame per worker
//     (group commit). WithSerialLog and WithNoCoalesce revert each leg
//     for differential testing; the pipelined-vs-serial tests pin
//     byte-identical answers and WAL files across all combinations.
//
// # High availability
//
// Three layers make the cluster survive the loss of any process
// (NewCluster options, ClusterHub/ClusterStandby, ClusterReplStates):
//
//   - Log shipping. With ClusterOptions.Repl set to ReplAsync or
//     ReplQuorum, the coordinator streams every committed batch's WAL
//     record — the same (seq, gen, ΔG) payload its own log framed — to the
//     workers owning the touched shards, on one ordered queue per worker.
//     Each worker keeps per-shard replica logs (file-backed via
//     ClusterWorker.SetLogDir) whose per-shard sequence chains detect any
//     missed record; a gap heals by parcel resync from the authoritative
//     segments, never by guessing. ReplAsync acknowledges on enqueue;
//     ReplQuorum waits for a majority of the involved workers' clean
//     appends. Replication never fails a commit — the batch was already
//     durable at the coordinator — a shortfall only marks it degraded.
//   - Standby failover and fencing. A ClusterHub beside the primary feeds
//     committed records to ClusterStandby processes (snapshot handshake,
//     then a tail whose heartbeats double as the primary's lease). Every
//     coordinator session carries a fencing term; workers remember the
//     highest term seen and reject mutating requests from any older
//     session. On lease expiry — or an operator's explicit promote — the
//     standby's owner attaches a coordinator at term+1 over the same
//     workers, which re-places every shard and fences the deposed
//     coordinator: its late commits fail with "fenced" instead of forking
//     history. The differential tests pin that a SIGKILL'd primary plus a
//     promoted standby produce answers, snapshot bytes, and worker
//     replicas identical to the uninterrupted run.
//   - Replica reads and degradation. ClusterReplStates asks any worker —
//     no coordinator session needed — which generation each of its shards
//     has proven current, the currency check for serving reads from
//     replicas. The serving tier degrades monotonically: a standby with a
//     live feed serves reads that are current through the last fed commit;
//     a standby that outlived its primary keeps serving reads from its
//     last durable generation (never a write); a replica that diverged
//     from a live primary redirects reads to the primary rather than
//     answer stale. Writes are only ever accepted at the single fenced
//     primary.
//   - Anti-entropy scrubbing. Gap detection only catches a replica that
//     missed a record; a replica rotted by anything that preserves the
//     sequence chain — a bit flip in a replica log file, silently
//     diverged in-memory state — would stay wrong until a commit
//     happened to abort on it. The coordinator's background scrubber
//     (Cluster.Scrub, Cluster.StartScrubber) walks shards round-robin,
//     one per interval: it compares the worker's parcel bytes against the
//     authoritative segment and asks the worker to re-scan its replica
//     log file against what it acknowledged, and re-places any shard
//     that fails either check — the same heal a gap triggers, driven by
//     verification instead of luck. Busy shards are skipped, not waited
//     for; passes, mismatches, and heals are lifetime counters.
//   - Fault drills. FaultScript wraps any cluster connection in a seeded
//     frame-level shim (drop/delay/duplicate/sever, matched by direction,
//     frame index, and message type) with an event log that is
//     reproducible run-to-run — the chaos drills in CI assert the same
//     faults fire at the same frames twice in a row. FaultFS is its
//     storage counterpart: a seeded filesystem shim under the store's
//     write path (DurableOptions.FS) that fails chosen syscalls — EIO,
//     ENOSPC, short and torn writes, fsyncs that fail or lie, crash and
//     power-loss at write K — with the same determinism pin, so disk
//     drills replay byte-for-byte.
//
// cmd/incgraphd exposes all of this operationally: "incgraphd worker"
// runs a shard worker, the serving daemon attaches workers with
// -cluster addr,addr or -cluster-spawn N (plus -repl/-term/-hub for
// replication, fencing, and the standby feed), and "incgraphd standby"
// runs a warm replica that serves reads while tailing and becomes the
// primary on "promote". "stat" reports worker health, replication
// counters, and the fencing term alongside the accept/commit error
// counters; "health" is the cheap role/liveness probe.
//
// # Overload and admission control
//
// The HA layer bounds what failure can do; the admission layer bounds
// what load can do. The serving daemon promises the same kind of
// monotonic degradation matrix under overload that the replica tier
// promises under process loss:
//
//   - A healthy daemon under nominal load answers everything; overload
//     protection is invisible (the gates' slots outnumber the load).
//   - Under a commit storm, commits queue up to a bounded depth and then
//     shed with an explicit "err overloaded ...; retry" reply — admitted
//     throughput plateaus at the gate's capacity instead of collapsing,
//     the p99 of admitted ops stays bounded by the per-op budget, and a
//     shed commit keeps its staged batch so the retry is one line.
//     Reads keep answering from the maintained engines the whole time:
//     the WAL fsync and checkpoint I/O happen outside the graph lock, so
//     a slow disk backs up writers (who shed at the gate), never readers.
//   - Under a read storm the read gate sheds the excess the same way;
//     commits proceed unimpeded on their own gate.
//   - Slow, idle, and oversized-line clients are cut on per-connection
//     deadlines — a byte-at-a-time trickle is cut exactly like an idle
//     connection, an over-limit line gets "err line too long" before the
//     close — and past -max-conns new connections are shed at accept.
//     A misbehaving client never degrades a healthy one.
//   - The disk has its own column in the matrix: healthy → retrying →
//     read-only → healed. A failed WAL append is retried with capped
//     backoff (healthy commits never notice a transient flake); a disk
//     that stays dead flips the daemon into advertised read-only mode,
//     where commits shed with "err disk degraded; read-only" — keeping
//     their staged batch, like any shed — while reads keep answering
//     from the maintained engines and "health" says disk=read-only. A
//     background probe flips it back the moment a WAL fsync succeeds
//     again; recovery needs no operator and no restart, and "acked ⇒
//     durable" holds across the whole cycle — a commit acknowledged
//     before, during, or after the incident is on disk, and a shed one
//     left no trace.
//   - Nothing is silent: every shed, queue timeout, idle cut, oversized
//     line, and refused connection is a counter in "stat".
//
// Admitted is admitted: whatever was acked under the storm is exactly
// what the graph holds after it — byte-identical to a serial replay of
// the acked commits, the same currency crash recovery is held to.
// cmd/loadgen replays YAML-described scenarios (read-heavy, ingest-heavy,
// mixed, hot-key skew, slow clients, a 2x overload spike) against any of
// the daemon's modes and asserts exactly this contract plus latency
// bounds; CI runs a scaled-down mixed scenario every push.
//
// The facade in this package re-exports the library's types and
// constructors; the implementations live in internal packages:
//
//	internal/graph      directed labeled graphs and the update model
//	internal/kws        keyword search: batch build + IncKWS±/IncKWS
//	internal/rex        regular path expressions and the Glushkov NFA
//	internal/rpq        RPQ_NFA and IncRPQ over pmark_e markings
//	internal/scc        Tarjan, contracted graph, ranks, IncSCC±/IncSCC
//	internal/iso        VF2 and the localizable IncISO
//	internal/reach      SSRP (the unboundedness anchor)
//	internal/reduction  executable ∆-reductions from the Theorem 1 proofs
//	internal/gen        dataset simulators, update and query generators
//	internal/bench      the harness that regenerates the paper's figures
//	internal/store      per-shard snapshots, the WAL, checkpoint/recover
//	internal/cluster    shard workers, framed RPC, the distributed apply,
//	                    log shipping, standby failover, fault injection
//
// A minimal session:
//
//	g := incgraph.NewGraph()
//	g.AddNode(1, "paper")
//	g.AddNode(2, "author")
//	g.AddEdge(1, 2)
//
//	e, _ := incgraph.NewRPQ(g, "paper.author")
//	_ = e.Matches() // [(1,2)]
//
//	delta, _ := e.Apply(incgraph.Batch{incgraph.Del(1, 2)})
//	_ = delta.Removed // [(1,2)]
//
// The reproduction of the paper's evaluation is cmd/benchmark (the
// figures and tables of Section 6, built by internal/bench); the serving
// benchmark is e2ebench, documented in e2ebench/README.md.
package incgraph
