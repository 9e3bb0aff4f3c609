package audit

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/securefs"
)

// pipelines is the append-path matrix most behavior tests sweep: every
// mode must produce the same observable trail.
var pipelines = []Pipeline{PipeSync, PipeBatched, PipeAsync}

func forEachPipeline(t *testing.T, fn func(t *testing.T, pipe Pipeline)) {
	t.Helper()
	for _, pipe := range pipelines {
		t.Run(pipe.String(), func(t *testing.T) { fn(t, pipe) })
	}
}

func memLog(t *testing.T, clk clock.Clock) *Log {
	t.Helper()
	return memLogPipe(t, clk, PipeSync)
}

func memLogPipe(t *testing.T, clk clock.Clock, pipe Pipeline) *Log {
	t.Helper()
	l, err := Open(Config{Clock: clk, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func mustRange(t *testing.T, l *Log, from, to time.Time) []Entry {
	t.Helper()
	out, err := l.Range(from, to)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustTail(t *testing.T, l *Log, n int) []Entry {
	t.Helper()
	out, err := l.Tail(n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustByActor(t *testing.T, l *Log, actor string) []Entry {
	t.Helper()
	out, err := l.ByActor(actor)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendAssignsSeqAndTime(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		sim := clock.NewSim(time.Time{})
		l := memLogPipe(t, sim, pipe)
		e1, err := l.Append(Entry{Actor: "customer:neo", Op: "READ"})
		if err != nil {
			t.Fatal(err)
		}
		sim.Advance(time.Second)
		e2, err := l.Append(Entry{Actor: "customer:neo", Op: "READ"})
		if err != nil {
			t.Fatal(err)
		}
		if e1.Seq != 1 || e2.Seq != 2 {
			t.Fatalf("seqs = %d, %d", e1.Seq, e2.Seq)
		}
		if !e2.Time.After(e1.Time) {
			t.Fatalf("times not increasing: %v then %v", e1.Time, e2.Time)
		}
		if l.Total() != 2 {
			t.Fatalf("total = %d", l.Total())
		}
		if l.Bytes() <= 0 {
			t.Fatalf("bytes = %d", l.Bytes())
		}
	})
}

func TestRangeQuery(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		sim := clock.NewSim(time.Time{})
		start := sim.Now()
		l := memLogPipe(t, sim, pipe)
		for i := 0; i < 10; i++ {
			sim.Advance(time.Minute)
			if _, err := l.Append(Entry{Op: fmt.Sprintf("op%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Entries are at minutes 1..10; select [3m, 7m].
		got := mustRange(t, l, start.Add(3*time.Minute), start.Add(7*time.Minute))
		if len(got) != 5 {
			t.Fatalf("range size = %d, want 5", len(got))
		}
		if got[0].Op != "op2" || got[4].Op != "op6" {
			t.Fatalf("range = %v..%v", got[0].Op, got[4].Op)
		}
		if n := len(mustRange(t, l, start.Add(time.Hour), start.Add(2*time.Hour))); n != 0 {
			t.Fatalf("empty range size = %d", n)
		}
	})
}

func TestTailAndByActor(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		l := memLogPipe(t, clock.NewSim(time.Time{}), pipe)
		for i := 0; i < 5; i++ {
			actor := "a"
			if i%2 == 0 {
				actor = "b"
			}
			l.Append(Entry{Actor: actor, Op: fmt.Sprintf("op%d", i)})
		}
		tail := mustTail(t, l, 2)
		if len(tail) != 2 || tail[0].Op != "op3" || tail[1].Op != "op4" {
			t.Fatalf("tail = %v", tail)
		}
		if got := mustTail(t, l, 100); len(got) != 5 {
			t.Fatalf("tail overshoot = %d", len(got))
		}
		if got := mustByActor(t, l, "b"); len(got) != 3 {
			t.Fatalf("by actor = %d, want 3", len(got))
		}
	})
}

// TestMemoryCapEvictsButKeepsDisk pins the tentpole property: eviction
// bounds memory, not query results — evicted history is read back from
// the segment store.
func TestMemoryCapEvictsButKeepsDisk(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		dir := t.TempDir()
		path := filepath.Join(dir, "audit.log")
		sim := clock.NewSim(time.Time{})
		l, err := Open(Config{Path: path, Clock: sim, MemoryCap: 100, Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if _, err := l.Append(Entry{Op: fmt.Sprintf("op%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		if l.Total() != 500 {
			t.Fatalf("total = %d", l.Total())
		}
		if err := l.Sync(); err != nil { // barrier: async staging drained
			t.Fatal(err)
		}
		// The in-memory tail is bounded...
		tail, start := l.tailSnapshot()
		if len(tail) > 100 {
			t.Fatalf("in-memory entries = %d, want <= 100", len(tail))
		}
		if start <= 1 {
			t.Fatalf("nothing was evicted (memStart=%d) — test is vacuous", start)
		}
		// ...but queries still see the whole trail.
		if got := mustTail(t, l, 1000); len(got) != 500 {
			t.Fatalf("Tail across eviction = %d entries, want 500", len(got))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var n int
		var lastSeq uint64
		if err := Replay(path, nil, func(e Entry) error {
			n++
			if e.Seq <= lastSeq {
				return fmt.Errorf("seq not increasing: %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != 500 {
			t.Fatalf("disk entries = %d, want 500", n)
		}
	})
}

func TestEncryptedPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.enc")
	key := securefs.Key("audit")
	l, err := Open(Config{Path: path, Key: key, Clock: clock.NewSim(time.Time{}), Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Actor: "regulator:dpa", Op: "GET-SYSTEM-LOGS", Target: "t0..t1", OK: true}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	if err := Replay(path, key, func(e Entry) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Actor != "regulator:dpa" || !got[0].OK {
		t.Fatalf("replayed = %+v", got)
	}
	// Wrong key must fail, not silently read as an empty trail.
	if err := Replay(path, securefs.Key("other"), func(Entry) error { return nil }); err == nil {
		t.Fatal("wrong key should fail")
	}
}

func TestEntryEncodingEscapes(t *testing.T) {
	e := Entry{
		Seq: 7, Time: time.Unix(1, 2).UTC(),
		Actor: "a\tb", Op: "o\np", Target: `t\q`, OK: true, Note: "n\t\n\\",
	}
	got, err := decodeEntry(appendEntry(nil, e))
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestEntryEncodingProperty(t *testing.T) {
	f := func(actor, op, target, note string, ok bool, seq uint64, ns int64) bool {
		e := Entry{Seq: seq, Time: time.Unix(0, ns).UTC(), Actor: actor, Op: op, Target: target, OK: ok, Note: note}
		got, err := decodeEntry(appendEntry(nil, e))
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEncodingRoundTrip(t *testing.T) {
	batch := []Entry{
		{Seq: 1, Time: time.Unix(0, 5).UTC(), Actor: "a\nb", Op: "x"},
		{Seq: 2, Time: time.Unix(0, 6).UTC(), Actor: "c", Op: "y\t", Note: "multi\nline"},
		{Seq: 3, Time: time.Unix(0, 7).UTC(), OK: true},
	}
	frame := encodeBatch(nil, batch)
	var got []Entry
	if err := decodeBatch(frame, func(e Entry, n int) error {
		if want := len(appendEntry(nil, e)); n != want {
			t.Fatalf("entry %d encoded length = %d, want %d", len(got), n, want)
		}
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, got[i], batch[i])
		}
	}
}

func TestDecodeEntryErrors(t *testing.T) {
	bad := []string{"", "1\t2", "x\t2\ta\to\tt\t1\tn", "1\tx\ta\to\tt\t1\tn"}
	for _, s := range bad {
		if _, err := decodeEntry([]byte(s)); err == nil {
			t.Fatalf("decodeEntry(%q) should fail", s)
		}
	}
}

func TestEverySecSyncsAndSurvivesReplay(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		path := filepath.Join(t.TempDir(), "audit.log")
		sim := clock.NewSim(time.Time{})
		l, err := Open(Config{Path: path, Clock: sim, Policy: SyncEverySec, Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 0; i < 10; i++ {
			sim.Advance(50 * time.Millisecond)
			if _, err := l.Append(Entry{Op: "x"}); err != nil {
				t.Fatal(err)
			}
		}
		sim.Advance(2 * time.Second)
		if _, err := l.Append(Entry{Op: "y"}); err != nil {
			t.Fatal(err)
		}
		// All 11 entries must survive an explicit close→replay.
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := Replay(path, nil, func(Entry) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 11 {
			t.Fatalf("entries = %d, want 11", n)
		}
	})
}

func TestAppendAfterCloseFails(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		l := memLogPipe(t, nil, pipe)
		l.Close()
		if _, err := l.Append(Entry{}); err == nil {
			t.Fatal("append after close should fail")
		}
		if err := l.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
	})
}

func TestConcurrentAppendsKeepSeqDense(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		l := memLogPipe(t, nil, pipe)
		var wg sync.WaitGroup
		const workers, per = 8, 250
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := l.Append(Entry{Op: "c"}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if l.Total() != workers*per {
			t.Fatalf("total = %d", l.Total())
		}
		seen := map[uint64]bool{}
		for _, e := range mustTail(t, l, workers*per) {
			if seen[e.Seq] {
				t.Fatalf("duplicate seq %d", e.Seq)
			}
			seen[e.Seq] = true
		}
		if len(seen) != workers*per {
			t.Fatalf("distinct seqs = %d", len(seen))
		}
	})
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{SyncNone: "none", SyncEverySec: "everysec", SyncAlways: "always", Policy(9): "Policy(9)"} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", int(p), p.String())
		}
	}
}

func TestPipelineStringAndParse(t *testing.T) {
	for p, want := range map[Pipeline]string{PipeSync: "sync", PipeBatched: "batched", PipeAsync: "async", Pipeline(9): "Pipeline(9)"} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", int(p), p.String())
		}
	}
	for _, s := range []string{"sync", "batched", "async"} {
		p, err := ParsePipeline(s)
		if err != nil || p.String() != s {
			t.Fatalf("ParsePipeline(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParsePipeline("bogus"); err == nil {
		t.Fatal("bogus pipeline should fail to parse")
	}
}

func TestSyncOnMemoryOnlyLogIsNoop(t *testing.T) {
	l := memLog(t, nil)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeBoundsInclusive(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	l := memLog(t, sim)
	sim.Advance(time.Minute)
	e, _ := l.Append(Entry{Op: "only"})
	got := mustRange(t, l, e.Time, e.Time)
	if len(got) != 1 {
		t.Fatalf("inclusive range = %d entries", len(got))
	}
}

func BenchmarkAppendMemoryOnly(b *testing.B) {
	for _, pipe := range pipelines {
		b.Run(pipe.String(), func(b *testing.B) {
			l, err := Open(Config{Pipeline: pipe})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			e := Entry{Actor: "processor:p1", Op: "READ-DATA-BY-KEY", Target: "user1234"}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAppendPersistentEverySec(b *testing.B) {
	for _, pipe := range pipelines {
		b.Run(pipe.String(), func(b *testing.B) {
			l, err := Open(Config{Path: filepath.Join(b.TempDir(), "a.log"), Policy: SyncEverySec, Pipeline: pipe})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			e := Entry{Actor: "processor:p1", Op: "READ-DATA-BY-KEY", Target: strings.Repeat("k", 16)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
