package audit

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// The append path is a two-stage pipeline:
//
//	caller ── sequencer ── lock-striped staging ──▶ writer goroutine
//	            (Seq+Time)       (per-stripe mutex)      │
//	                                                     ├─ batch-encode → segment frame
//	                                                     ├─ group fsync (policy-driven)
//	                                                     └─ publish to the memory tail
//
// The sequencer assigns Seq and Time together in one short critical
// section, so sequence order equals time order — the property Range's
// binary search and the replay monotonicity check both rely on. Staging
// then only contends per stripe (seq mod N), so N engines/shards/
// connections submitting concurrently do not serialize behind one
// encode+write lock the way the old single-mutex log did. The writer
// drains the stripes, restores dense sequence order (a producer may be
// preempted between sequencing and staging), writes one batch frame,
// applies the sync policy, and publishes the batch to the in-memory
// tail. Compliance ordering therefore survives the asynchrony: entries
// reach disk and the tail in exact sequence order, and every query
// barriers on the writer having consumed all sequenced entries before
// answering.
//
// Backpressure is a bounded slot semaphore: when QueueDepth entries are
// staged but unwritten, Append blocks until the writer catches up —
// the trail is lossless by construction; only latency degrades.

const (
	defaultMemoryCap    = 1 << 20
	defaultQueueDepth   = 1 << 14
	defaultSegmentBytes = 4 << 20
	numStripes          = 8
	syncInterval        = time.Second
)

var errClosed = errors.New("audit: append to closed log")

// Config configures a Log.
type Config struct {
	// Path is the backing trail's base path; segments are created as
	// Path.NNNNNN.seg (+ .idx summaries). Empty means memory-only.
	Path string
	// Key enables at-rest encryption of the backing segments.
	Key []byte
	// Policy is the fsync policy for the backing segments.
	Policy Policy
	// Pipeline selects the append path: inline (sync), group-committed
	// with caller wait (batched), or fire-and-forget (async).
	Pipeline Pipeline
	// Clock supplies timestamps; defaults to the real clock.
	Clock clock.Clock
	// MemoryCap bounds the in-memory tail kept for fast queries; older
	// entries are evicted from memory but remain queryable from the
	// segment store. 0 means a default of 1<<20 entries.
	MemoryCap int
	// QueueDepth bounds staged-but-unwritten entries in the pipeline
	// modes; a full queue blocks Append (backpressure, never loss).
	// 0 means a default of 1<<14.
	QueueDepth int
	// SegmentBytes rolls the active segment once it holds this many
	// encoded entry bytes. 0 means a default of 4 MiB.
	SegmentBytes int64
	// Retention bounds how long trail entries are kept: whenever a
	// segment seals, a background compaction pass deletes sealed segments
	// whose newest entry is older than Retention and rewrites the one
	// straddling the cutoff (GDPR storage limitation — audit trails are
	// themselves personal data). 0 keeps everything forever.
	Retention time.Duration
}

type stripe struct {
	mu  sync.Mutex
	buf []Entry
	// Pad each stripe past a cache line so adjacent stripe locks do not
	// false-share under concurrent producers.
	_ [64]byte
}

// Log is an append-only audit trail. It is safe for concurrent use.
type Log struct {
	policy Policy
	pipe   Pipeline
	clk    clock.Clock
	memCap int
	store  *segmentStore // nil = memory-only

	// Retention compaction trigger state: one background pass per
	// observed seal, never more than one in flight.
	retention      time.Duration
	compactGen     atomic.Int64
	compactRunning atomic.Bool

	// Sequencer. Guards nextSeq, the closed flag, and the Seq↔Time
	// consistency described above. Deliberately tiny: no encoding or IO
	// ever happens under it.
	seqMu   sync.Mutex
	nextSeq uint64
	closed  bool

	// Staging (pipeline modes only).
	stripes   []stripe
	batch     []Entry       // consume's batch buffer, owned by the writer goroutine
	slots     chan struct{} // backpressure semaphore
	notify    chan struct{} // writer wake-up, capacity 1
	quit      chan struct{}
	done      chan struct{}
	failedCh  chan struct{} // closed on the first sticky error
	hasWriter bool
	failed    atomic.Bool // mirrors werr != nil without taking mu
	maxQueue  atomic.Int64

	// Published state: the memory tail, watermarks and counters. The
	// writer (or the inline sync path) publishes under mu and broadcasts
	// cond; committers and query barriers wait on it.
	mu           sync.Mutex
	cond         *sync.Cond
	entries      []Entry // in-memory tail, ordered by Seq (and Time)
	written      uint64  // highest Seq written (tail + segment file buffer)
	durable      uint64  // highest Seq covered by an fsync
	werr         error   // sticky writer/disk error
	stats        Stats
	lastSync     time.Time
	dirty        bool // segment bytes not yet fsynced
	writerExited bool
}

// Open creates a Log per cfg, recovering any existing segments at
// cfg.Path (their summaries restore the sequence and the counters).
func Open(cfg Config) (*Log, error) {
	l := &Log{policy: cfg.Policy, pipe: cfg.Pipeline, clk: cfg.Clock, memCap: cfg.MemoryCap, retention: cfg.Retention}
	if l.clk == nil {
		l.clk = clock.NewReal()
	}
	if l.memCap <= 0 {
		l.memCap = defaultMemoryCap
	}
	queueDepth := cfg.QueueDepth
	if queueDepth <= 0 {
		queueDepth = defaultQueueDepth
	}
	segBytes := cfg.SegmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	if cfg.Path != "" {
		store, err := openStore(cfg.Path, cfg.Key, segBytes)
		if err != nil {
			return nil, err
		}
		l.store = store
		maxSeq, count, bytes := store.restoredCounters()
		l.nextSeq = maxSeq
		l.written = maxSeq
		l.durable = maxSeq
		l.stats.Appended = count
		l.stats.Bytes = bytes
	}
	l.cond = sync.NewCond(&l.mu)
	l.lastSync = l.clk.Now()
	l.quit = make(chan struct{})
	l.done = make(chan struct{})
	l.failedCh = make(chan struct{})
	if l.pipe != PipeSync {
		l.stripes = make([]stripe, numStripes)
		l.slots = make(chan struct{}, queueDepth)
	}
	// The writer goroutine drains staging in the pipeline modes; under
	// PipeSync it still runs when a timer-driven everysec flush is
	// needed, so an idle log cannot sit unsynced indefinitely.
	if l.pipe != PipeSync || (l.store != nil && l.policy == SyncEverySec) {
		l.hasWriter = true
		l.notify = make(chan struct{}, 1)
		go l.runWriter()
	}
	return l, nil
}

// Pipeline reports the log's append-path mode.
func (l *Log) Pipeline() Pipeline { return l.pipe }

// SyncPolicy reports the log's fsync policy.
func (l *Log) SyncPolicy() Policy { return l.policy }

// Append records one entry, assigning its sequence number and timestamp,
// and returns the stored entry. Under PipeSync it returns once the entry
// is written (and fsynced per policy); under PipeBatched once the writer
// has group-committed it; under PipeAsync immediately.
func (l *Log) Append(e Entry) (Entry, error) {
	if l.pipe == PipeSync {
		return l.appendSync(e)
	}
	return l.appendStaged(e)
}

// Submit records one entry, discarding the assigned sequence — the
// non-blocking (modulo the pipeline's own semantics) hot-path form the
// compliance middleware uses.
func (l *Log) Submit(e Entry) { _, _ = l.Append(e) }

// appendSync is the legacy inline path: sequence, encode, write and
// fsync all inside the caller, serialized behind the sequencer lock —
// the ablation baseline the pipeline modes are measured against.
func (l *Log) appendSync(e Entry) (Entry, error) {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	if l.closed {
		return Entry{}, errClosed
	}
	if l.failed.Load() {
		return Entry{}, l.stickyErr()
	}
	l.nextSeq++
	e.Seq = l.nextSeq
	e.Time = l.clk.Now()
	batch := []Entry{e}
	var encoded int64
	if l.store != nil {
		n, err := l.store.append(batch)
		if err != nil {
			l.fail(err)
			return e, err
		}
		encoded = n
	} else {
		encoded = int64(encodedLen(e))
	}
	l.publish(batch, encoded)
	if l.store != nil {
		l.maybeCompact()
	}
	if l.notify != nil {
		// Nudge the timer flusher: it arms its everysec timer only when
		// it observes dirty bytes.
		select {
		case l.notify <- struct{}{}:
		default:
		}
	}
	if l.store != nil {
		switch l.policy {
		case SyncAlways:
			if err := l.syncTo(e.Seq); err != nil {
				return e, err
			}
		case SyncEverySec:
			l.mu.Lock()
			due := e.Time.Sub(l.lastSync) >= syncInterval
			l.mu.Unlock()
			if due {
				if err := l.syncTo(e.Seq); err != nil {
					return e, err
				}
			}
		}
	}
	return e, nil
}

// appendStaged is the pipeline path: acquire a backpressure slot,
// sequence, stage into a stripe, wake the writer, and wait only as far
// as the mode requires.
func (l *Log) appendStaged(e Entry) (Entry, error) {
	if l.failed.Load() {
		// The writer hit a sticky disk error: slots for entries parked
		// behind the failure are never released again, so acquiring one
		// here could block forever instead of surfacing the error.
		return Entry{}, l.stickyErr()
	}
	select {
	case l.slots <- struct{}{}:
	case <-l.quit:
		return Entry{}, errClosed
	case <-l.failedCh:
		return Entry{}, l.stickyErr()
	}
	if depth := int64(len(l.slots)); depth > l.maxQueue.Load() {
		for {
			m := l.maxQueue.Load()
			if depth <= m || l.maxQueue.CompareAndSwap(m, depth) {
				break
			}
		}
	}
	l.seqMu.Lock()
	if l.closed {
		l.seqMu.Unlock()
		<-l.slots
		return Entry{}, errClosed
	}
	l.nextSeq++
	e.Seq = l.nextSeq
	e.Time = l.clk.Now()
	l.seqMu.Unlock()

	st := &l.stripes[e.Seq%numStripes]
	st.mu.Lock()
	st.buf = append(st.buf, e)
	st.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}

	if l.failed.Load() {
		return e, l.stickyErr()
	}
	if l.pipe == PipeBatched {
		// Durable-wait mode: under SyncAlways the committer returns only
		// once a group fsync covers its entry; otherwise once the writer
		// has batch-written it.
		return e, l.waitSeq(e.Seq, l.policy == SyncAlways)
	}
	return e, nil
}

// waitSeq blocks until the written (or durable) watermark covers target.
func (l *Log) waitSeq(target uint64, durable bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.werr != nil {
			return l.werr
		}
		w := l.written
		if durable {
			w = l.durable
		}
		if w >= target {
			return nil
		}
		if l.writerExited {
			return errClosed
		}
		l.cond.Wait()
	}
}

// barrier waits until every sequenced entry has been consumed by the
// writer, making queries linearizable with respect to completed Appends
// from any goroutine.
func (l *Log) barrier() error {
	if l.pipe == PipeSync {
		return l.stickyErr()
	}
	l.seqMu.Lock()
	target := l.nextSeq
	l.seqMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.written < target && l.werr == nil && !l.writerExited {
		l.cond.Wait()
	}
	return l.werr
}

// publish appends a written batch to the memory tail, advances the
// written watermark and the counters, and wakes committers/barriers.
func (l *Log) publish(batch []Entry, encoded int64) {
	l.mu.Lock()
	l.entries = append(l.entries, batch...)
	if len(l.entries) > l.memCap {
		// Evict the oldest half to amortize copying; evicted entries
		// remain queryable from the segment store.
		keep := l.memCap / 2
		l.entries = append(l.entries[:0:0], l.entries[len(l.entries)-keep:]...)
	}
	l.written = batch[len(batch)-1].Seq
	l.stats.Appended += int64(len(batch))
	l.stats.Bytes += encoded
	l.stats.Batches++
	if l.store != nil {
		l.dirty = true
	} else {
		// A memory-only trail is as durable as it gets the moment it is
		// published; without this, PipeBatched+SyncAlways committers
		// would wait forever on a watermark no fsync will ever advance.
		l.durable = l.written
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// syncTo fsyncs the segment store and advances the durable watermark.
func (l *Log) syncTo(target uint64) error {
	if err := l.store.sync(); err != nil {
		l.fail(err)
		return err
	}
	l.mu.Lock()
	l.stats.Flushes++
	if target > l.durable {
		l.durable = target
	}
	l.lastSync = l.clk.Now()
	if l.written == target {
		l.dirty = false
	}
	l.mu.Unlock()
	l.cond.Broadcast()
	return nil
}

// fail records a sticky writer/disk error: the trail is no longer
// trustworthy, so every subsequent append and query surfaces it.
// failedCh additionally unblocks producers parked on the backpressure
// semaphore — after a failure the writer stops releasing slots.
func (l *Log) fail(err error) {
	l.mu.Lock()
	first := l.werr == nil
	if first {
		l.werr = err
	}
	l.mu.Unlock()
	l.failed.Store(true)
	if first && l.failedCh != nil {
		close(l.failedCh)
	}
	l.cond.Broadcast()
}

func (l *Log) stickyErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.werr
}

// ---------------------------------------------------------------------------
// Writer goroutine

func (l *Log) runWriter() {
	defer close(l.done)
	reorder := make(map[uint64]Entry)
	var timerCh <-chan time.Time
	for {
		// Arm the idle-flush timer whenever unsynced bytes exist: under
		// SyncEverySec an append-driven check alone would leave an idle
		// log unsynced indefinitely.
		if timerCh == nil && l.store != nil && l.policy == SyncEverySec {
			l.mu.Lock()
			dirty := l.dirty
			l.mu.Unlock()
			if dirty {
				timerCh = l.clk.After(syncInterval)
			}
		}
		select {
		case <-l.quit:
			l.drainStaging(reorder)
			l.mu.Lock()
			l.writerExited = true
			l.mu.Unlock()
			l.cond.Broadcast()
			return
		case <-timerCh:
			timerCh = nil
			l.timedSync()
		case <-l.notify:
			l.consume(reorder)
		}
	}
}

// consume drains the stripes, restores dense sequence order through the
// reorder buffer, and group-commits the contiguous batch. Entries whose
// predecessors are still being staged stay parked until the producer's
// notify triggers the next consume.
func (l *Log) consume(reorder map[uint64]Entry) {
	for i := range l.stripes {
		st := &l.stripes[i]
		st.mu.Lock()
		for _, e := range st.buf {
			reorder[e.Seq] = e
		}
		st.buf = st.buf[:0]
		st.mu.Unlock()
	}
	l.mu.Lock()
	next := l.written + 1
	l.mu.Unlock()
	batch := l.batch[:0]
	for {
		e, ok := reorder[next]
		if !ok {
			break
		}
		delete(reorder, next)
		batch = append(batch, e)
		next++
	}
	l.batch = batch
	if len(batch) == 0 {
		return
	}
	l.writeBatch(batch)
	for range batch {
		<-l.slots // release backpressure for written entries
	}
}

// writeBatch writes one group-commit batch and applies the sync policy.
func (l *Log) writeBatch(batch []Entry) {
	var encoded int64
	if l.store != nil {
		n, err := l.store.append(batch)
		if err != nil {
			l.fail(err)
			return
		}
		encoded = n
	} else {
		for _, e := range batch {
			encoded += int64(encodedLen(e))
		}
	}
	last := batch[len(batch)-1].Seq
	l.publish(batch, encoded)
	if l.store == nil {
		return
	}
	l.maybeCompact()
	switch l.policy {
	case SyncAlways:
		_ = l.syncTo(last) // one leader fsync covers the whole batch
	case SyncEverySec:
		l.mu.Lock()
		due := l.clk.Now().Sub(l.lastSync) >= syncInterval
		l.mu.Unlock()
		if due {
			_ = l.syncTo(last)
		}
	}
}

// Compact enforces the retention window now: segments of the on-disk
// trail holding only entries older than Config.Retention are deleted,
// and the segment straddling the cutoff is rewritten without its expired
// prefix. Queries keep running throughout (the swap excludes them only
// for a rename). It returns how many entries were dropped; a log without
// a backing store or a retention window compacts nothing.
func (l *Log) Compact() (int64, error) {
	if l.store == nil || l.retention <= 0 {
		return 0, nil
	}
	start := l.clk.Now()
	defer func() { obsCompactionNs.ObserveDuration(l.clk.Since(start)) }()
	cutoff := start.Add(-l.retention).UnixNano()
	dropped, changed, err := l.store.compact(cutoff)
	if changed {
		// Prune the memory tail to mirror disk: every sealed entry below
		// the cutoff is gone from the trail now, and the tail is its
		// cache. Entries still in the active segment stay — they are
		// reclaimed when that segment seals.
		bound := l.store.activeMinSeq()
		l.mu.Lock()
		i := 0
		for i < len(l.entries) {
			e := l.entries[i]
			if e.Time.UnixNano() >= cutoff || (bound != 0 && e.Seq >= bound) {
				break
			}
			i++
		}
		if i > 0 {
			l.entries = append(l.entries[:0:0], l.entries[i:]...)
		}
		l.stats.Compactions++
		l.stats.CompactedEntries += dropped
		l.mu.Unlock()
	}
	return dropped, err
}

// maybeCompact launches one background retention pass when a segment has
// sealed since the last pass. Compaction failures are swallowed here —
// they never poison the append path — and surface through query errors
// if the trail is genuinely damaged.
func (l *Log) maybeCompact() {
	if l.store == nil || l.retention <= 0 {
		return
	}
	g := l.store.sealGen.Load()
	if g == l.compactGen.Load() {
		return
	}
	if !l.compactRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer l.compactRunning.Store(false)
		l.compactGen.Store(g)
		_, _ = l.Compact()
	}()
}

// timedSync is the idle-flush: fsync if anything is dirty.
func (l *Log) timedSync() {
	l.mu.Lock()
	dirty := l.dirty
	target := l.written
	l.mu.Unlock()
	if !dirty {
		return
	}
	_ = l.syncTo(target)
}

// drainStaging consumes until every sequenced entry is written (Close
// set the closed flag first, so the sequence is frozen; a producer
// preempted between sequencing and staging finishes within a few
// scheduler quanta).
func (l *Log) drainStaging(reorder map[uint64]Entry) {
	for {
		l.consume(reorder)
		if l.failed.Load() {
			return
		}
		l.seqMu.Lock()
		target := l.nextSeq
		l.seqMu.Unlock()
		l.mu.Lock()
		caughtUp := l.written >= target
		l.mu.Unlock()
		if caughtUp {
			return
		}
		runtime.Gosched()
	}
}

// ---------------------------------------------------------------------------
// Queries: disk + memory, correct across eviction and restart

// tailSnapshot returns the current memory tail and the sequence at which
// it starts; entries below it are served from the segment store.
func (l *Log) tailSnapshot() ([]Entry, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tail := l.entries
	memStart := l.written + 1
	if len(tail) > 0 {
		memStart = tail[0].Seq
	}
	return tail, memStart
}

// Range returns the entries with from <= Time <= to, in order. This
// backs GET-SYSTEM-LOGS (G 33, 34: regulators investigate logs "based on
// time ranges"). Entries evicted from the memory tail are read back from
// the segment store (pruned by per-segment time bounds), so results are
// independent of MemoryCap and survive restarts; a memory-only log can
// only answer from its tail.
func (l *Log) Range(from, to time.Time) ([]Entry, error) {
	if err := l.barrier(); err != nil {
		return nil, err
	}
	tail, memStart := l.tailSnapshot()
	var out []Entry
	if l.store != nil && memStart > 1 {
		err := l.store.read(1, memStart-1,
			func(m *segMeta) bool { return m.overlapsTime(from, to) },
			func(e Entry) bool { return !e.Time.Before(from) && !e.Time.After(to) },
			func(e Entry) { out = append(out, e) })
		if err != nil {
			return nil, err
		}
	}
	// Tail order is time order, so [from, to] is one contiguous run of it.
	lo := sort.Search(len(tail), func(i int) bool {
		return !tail[i].Time.Before(from)
	})
	hi := lo + sort.Search(len(tail)-lo, func(i int) bool {
		return tail[lo+i].Time.After(to)
	})
	return append(out, tail[lo:hi]...), nil
}

// Tail returns up to n most recent entries, oldest first, reaching into
// the segment store when the memory tail holds fewer than n.
func (l *Log) Tail(n int) ([]Entry, error) {
	if err := l.barrier(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	tail, memStart := l.tailSnapshot()
	if n <= len(tail) || l.store == nil || memStart <= 1 {
		if n > len(tail) {
			n = len(tail)
		}
		return append([]Entry(nil), tail[len(tail)-n:]...), nil
	}
	// Sequences are dense, so the wanted window is exactly a seq range.
	last := memStart - 1 + uint64(len(tail))
	from := uint64(1)
	if last > uint64(n) {
		from = last - uint64(n) + 1
	}
	var out []Entry
	err := l.store.read(from, memStart-1,
		func(*segMeta) bool { return true },
		func(Entry) bool { return true },
		func(e Entry) { out = append(out, e) })
	if err != nil {
		return nil, err
	}
	out = append(out, tail...)
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out, nil
}

// ByActor returns entries whose Actor matches, in order. Segments whose
// bloom summary excludes the actor are skipped without being read.
func (l *Log) ByActor(actor string) ([]Entry, error) {
	if err := l.barrier(); err != nil {
		return nil, err
	}
	tail, memStart := l.tailSnapshot()
	var out []Entry
	if l.store != nil && memStart > 1 {
		err := l.store.read(1, memStart-1,
			func(m *segMeta) bool { return m.actors.mayContain(actor) },
			func(e Entry) bool { return e.Actor == actor },
			func(e Entry) { out = append(out, e) })
		if err != nil {
			return nil, err
		}
	}
	for _, e := range tail {
		if e.Actor == actor {
			out = append(out, e)
		}
	}
	return out, nil
}

// Total reports how many entries were ever appended (restored from the
// segment summaries across restarts).
func (l *Log) Total() int64 {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	return int64(l.nextSeq)
}

// Bytes reports total encoded entry bytes appended; feeds the
// space-overhead metric.
func (l *Log) Bytes() int64 {
	_ = l.barrier()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats.Bytes
}

// Stats snapshots the pipeline counters (after a barrier, so they cover
// every accepted entry).
func (l *Log) Stats() Stats {
	_ = l.barrier()
	l.mu.Lock()
	s := l.stats
	s.MaxQueueDepth = l.maxQueue.Load()
	l.mu.Unlock()
	if l.store != nil {
		s.Segments = l.store.segments()
	}
	return s
}

// Sync forces every accepted entry to stable storage.
func (l *Log) Sync() error {
	if err := l.barrier(); err != nil {
		return err
	}
	if l.store == nil {
		l.mu.Lock()
		l.lastSync = l.clk.Now()
		l.mu.Unlock()
		return nil
	}
	l.mu.Lock()
	target := l.written
	l.mu.Unlock()
	return l.syncTo(target)
}

// Close drains the staging pipeline, seals the active segment (flush,
// fsync, sidecar summary) and closes the trail. Close is idempotent;
// queries keep working on the closed log.
func (l *Log) Close() error {
	l.seqMu.Lock()
	if l.closed {
		l.seqMu.Unlock()
		return nil
	}
	l.closed = true
	l.seqMu.Unlock()
	close(l.quit)
	if l.hasWriter {
		<-l.done
	}
	var err error
	if l.store != nil {
		err = l.store.close()
	}
	l.mu.Lock()
	if err == nil {
		err = l.werr
	}
	l.writerExited = true
	l.mu.Unlock()
	l.cond.Broadcast()
	return err
}
