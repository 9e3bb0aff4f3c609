// Command perfbench is the repository's performance benchmark: GDPRbench's
// Table 2a role workloads run against stacks it assembles itself from the
// public constructors (core.NewRedisEngine, core.NewPostgresEngine,
// shard.New, core.Wrap, server.New with Serve on a loopback listener it
// owns, and remote.Dial). Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints a summary, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics, and writes the full report (host
// block, sample counts, gate results) to .bench_build/results/. The traced
// run also writes its spans there as tab-separated text.
//
// # Inputs
//
// Every input is generated from -seed before any timing starts: the
// 20,000 records to load (core.Dataset), the keys erased at set-up, and the
// op script, drawn from the mix, weights and distributions of
// core.DefaultWorkloads() and named with core.Dataset's naming. The timed
// loop only builds call arguments from those tables and calls core.DB
// methods. Each run is a fresh process. It makes five rounds, each on a
// fresh data directory under .bench_build/: set up the stack, replay the
// script for a fifth of -seconds, and (end-to-end runs) close and reopen
// the stack until the reopens took a second, at least three times. An
// end-to-end run repeats a round during which the host took more than 2%
// of the machine's CPU time (steal time in /proc/stat, which no code
// change can cause), up to ten rounds in all and while its rounds have
// run for less than 2.5 times -seconds, and reports the five rounds it
// stole least from: on a shared 2-core
// host a round with 13% steal completed a third fewer controller-rel ops
// than one with none. The load generator runs in the same process with
// two workers; every stack runs full compliance with metadata indexes and
// the batched audit pipeline, with background compaction off (the CLI
// default). The report file records, per query type, the share of ops
// whose answer counted at least one record, key or entry.
//
// # Workloads
//
// customer-kv: the customer mix (read-data-by-usr, read-metadata-by-key,
// update-data-by-key, update-metadata-by-key, delete-record-by-key, 20%
// each, zipf), embedded on the Redis model with 8 lock stripes, metadata
// indexes and AOF everysec, closed loop. Key-path reads beside writes put
// the work in the middleware, the kvstore point path, the staged AOF and
// the audit append. The relstore, the wire and audit queries do not run.
// Delete-by-key erases records no other op of the script names, each
// once, so every key read and update finds its record (zipf-drawn
// erasures remove the hot keys early and left 60% of them missing) and
// the log a round writes does not depend on whether a seed happens to
// erase one of the few hot keys.
//
// controller-rel: the controller mix (create; delete by pur/ttl/usr;
// update-metadata by pur/usr/shr; uniform), embedded on the PostgreSQL
// model with per-column secondary indexes and synchronous commit, so an
// acknowledged erasure is durable; closed loop. Attribute-targeted writes
// put the work in relstore selector resolution, B-tree maintenance, the
// WAL commit wait and the double audit trail (middleware plus statement
// log). The kvstore and the wire do not run. It is the only workload where
// a log commit blocks the result. Delete-by-ttl resolves its selector on
// the expiry index but erases nothing: no record expires within a run.
//
// regulator-tcp: the regulator mix (read-metadata-by-usr 46,
// get-system-logs 31, verify-deletion 23, zipf) against the Redis model
// split into 2 shards, served over loopback through server, wire and
// remote with at most 2 connections per role. Verify-deletion asks about
// keys erased at set-up. It is an open loop at a fixed 500 ops/s, a third
// of the ~1,500 ops/s the stack completes when saturated on a 2-core host
// (at half, 750 ops/s, queueing amplified host noise into a median-latency
// spread near the 25% bound), so each 1 s GET-SYSTEM-LOGS window covers
// the same number of audit entries on every commit. It is the only
// workload that exercises the wire, shard scatter-gather and audit-trail
// queries; the kvstore sees reads only.
//
// The closed loops run a fixed script per round, about 7,000 ops per
// second of the round for customer-kv and 350 for controller-rel (what a
// 2-core host completes), to its end rather than for a fixed time: both
// mixes erase records, so a round that did more ops would also change the
// data its later ops see. A closed-loop round stops early at three times
// its length.
//
// The processor mix is left out: its key reads take customer-kv's kvstore
// point path and its purpose, objection and decision selectors take the
// indexed selector path the other two workloads already cover.
//
// # End-to-end metrics (-trace 0)
//
// throughput_ops_s, latency_p50_us and alloc_bytes_per_op are the medians
// of the five reported rounds' figures, so a burst of host noise that
// slows one round does not move them; every round's figures, with its
// steal share, are in the report file.
// throughput_ops_s: completed ops over the round's wall time (for the open
// loop, the rate actually achieved). latency_p50_us: the median over the
// round's ops, from the scheduled arrival in the open loop.
// latency_p99_us, over the ops of the reported rounds, is printed with
// the sample count and the highest percentile that has at least ten
// samples beyond it, but it is not in the result line: collector and everysec-fsync
// stalls set it, and on a shared 2-core host its spread across runs (0.3
// to 0.9 of its median on regulator-tcp) is wider than a regression bound
// can be. A run with too few samples for a p99 fails. setup_s: the median
// of the reported rounds' set-ups, each opening the stack and ingesting
// the pre-generated records (generating them is not timed). recovery_s:
// the median of their close-then-reopen cycles, a second's worth after
// each round (about 25 on customer-kv, 60 on regulator-tcp), each
// reopening from the data directory (AOF, WAL and audit replay). Each
// set-up and reopen starts after a collection, so garbage from earlier
// work is not collected inside it. space_factor: total bytes over
// personal-data bytes after load (paper Table 3). alloc_bytes_per_op: heap
// bytes allocated by the whole process during the round's timed loop per
// op. rss_peak_mib: the process's VmHWM at the end. The error ratio is the
// result line's failed over attempted; it is not a metric because it is 0
// on every correct run. No op of a benchmarked script may be denied:
// customers act on their own records and the controller and the regulator
// use only verbs their role holds, so a denial counts as a failed op.
//
// # Per-layer metrics (-trace 1) and the end-to-end metric each should move
//
//	client: client.harness_ns_per_op (the same loop against a no-op
//	  core.DB), client.gen_late_p50_us and client.gen_late_p99_us (open
//	  loop: how late a waiting worker sent; closed loop: the gap between a
//	  reply and the next send). Should move nothing; the run is invalid
//	  when the harness costs 5% of latency_p50_us or more, or when the open
//	  loop's median lateness reaches a quarter of latency_p50_us or its p99
//	  lateness reaches latency_p99_us.
//	runtime: runtime.gc_cpu_fraction, runtime.gc_cycles_per_kop, from the
//	  untraced stretches. Should move throughput_ops_s on controller-rel
//	  and customer-kv.
//	core: core.self_us_per_op (DB span minus engine spans),
//	  core.engine_calls_per_op, core.phase_{validate,acl,transit,audit}_us
//	  (mean of the gdpr_phase_latency_ns histograms, every op sampled while
//	  traced). Should move latency_p50_us on customer-kv and regulator-tcp.
//	audit: audit.entries_per_op, audit.entries_per_batch,
//	  audit.bytes_per_entry should move alloc_bytes_per_op and
//	  throughput_ops_s on all three; audit.query_p50_us and
//	  audit.entries_per_query (GET-SYSTEM-LOGS at the DB boundary) should
//	  move latency_p99_us on regulator-tcp and nothing elsewhere.
//	kvstore: kvstore.busy_us_per_op, kvstore.calls_per_op,
//	  kvstore.lock_contention_per_op, kvstore.full_scans (stays 0 when
//	  indexed), kvstore.aof_ops_per_batch, kvstore.aof_bytes_per_user_byte.
//	  Should move throughput_ops_s on customer-kv, and recovery_s there for
//	  the AOF metrics; no change on controller-rel.
//	relstore and wal: relstore.busy_us_per_op, relstore.calls_per_op,
//	  relstore.keys_per_select, wal.lsns_per_fsync, wal.fsync_p50_us,
//	  wal.bytes_per_user_byte. Should move throughput_ops_s and recovery_s
//	  on controller-rel; no change on customer-kv.
//	shard: shard.fanout_per_call, shard.self_us_per_op (router span minus
//	  the union of its child spans), shard.slowest_child_ratio (slowest
//	  child over mean child of a fanned-out call). Should move
//	  latency_p99_us on regulator-tcp.
//	server, wire, remote: server.transport_us_per_op (client time minus
//	  server-side DB time), wire.bytes_per_op, server.frames_per_op,
//	  server.pipeline_depth_p50. Should move latency_p50_us on
//	  regulator-tcp; no change on the embedded workloads.
//
// A metric of a layer a workload does not run reads 0. The traced run
// pools its five rounds. Counts come from the obs registry over the timed
// loops; times come from spans.
// wal.fsync_p50_us and server.pipeline_depth_p50 are the registry's
// cumulative histograms for the process, so they include set-up.
// *_bytes_per_user_byte is log bytes on disk after the timed loop over the
// personal-data bytes loaded.
//
// # Tracing
//
// The traced run decorates each layer's public boundary: the core.Engine
// handed to core.Wrap and to shard.New, the core.DB handed to server.New
// (or called by the loop when embedded), and the server's net.Listener,
// which counts wire bytes. Tracing switches on and off every 100 ms, so
// traced and untraced ops share the same stretch of the script;
// trace.overhead_us_per_op and trace.overhead_share compare their mean
// service times. Spans are kept in memory and written when the run ends.
// A span's self time is its duration minus the union of its children's
// spans, so parallel shard children that overlap count once.
// trace.accounted_share is the harness's cost per op, measured on its own
// against the no-op DB, plus the layers' self times and the engine time
// below them per op, over the client's per-op time; time no span sees,
// such as the decorators' own cost, lowers it. On regulator-tcp it is not
// defined and reads 0: the transport there is known only as the client
// time the server does not account for, so the sum would equal the client
// time by construction. trace.unmatched_spans counts engine calls of DB
// calls that were already in flight when tracing switched on.
//
// # Correctness
//
// Before timing, core.Validate runs on the workload's stack configuration
// at 600 records and 400 ops on a frozen simulated clock; below 100% the
// run fails. The regulator loop checks each READ-METADATA-BY-USR count and
// redaction and each VERIFY-DELETION answer against the script. After the
// last round's recovery reopens, and again after one more reopen, every
// loaded key an acknowledged delete erased must be absent, and up to 128
// records no op wrote and 128 records written exactly once must read back
// as the script says, identically before and after that reopen. Any
// failure makes the result's correct false and the exit status 1.
package main
