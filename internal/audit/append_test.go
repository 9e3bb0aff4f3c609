package audit

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestBatchedAppendAllocationBound pins the allocation-free append path:
// the segment store reuses one frame buffer and the writer one batch
// slice, so a single-entry group commit allocates only the amortized
// growth of the memory tail. A fresh frame per batch costs 256 KiB.
func TestBatchedAppendAllocationBound(t *testing.T) {
	l, err := Open(Config{Path: filepath.Join(t.TempDir(), "trail.log"), Pipeline: PipeBatched})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := Entry{Actor: "customer:neo", Op: "UPDATE-DATA-BY-KEY", Target: "key42", OK: true, Note: "a\tnote"}
	for i := 0; i < 100; i++ { // reach steady state: buffers sized, writer parked
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if st := l.Stats(); st.Batches < n {
		t.Fatalf("%d batches for %d appends: want single-entry batches", st.Batches, st.Appended)
	}
	perAppend := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perAppend >= 4<<10 {
		t.Fatalf("%.0f B allocated per append, want < 4 KiB", perAppend)
	}
	t.Logf("%.0f B allocated per append", perAppend)
}

// raceNote derives an entry's note from its target, so a reader can tell
// an entry whose bytes were overwritten mid-encode from an intact one.
// Lengths vary, and tabs force escaping.
func raceNote(target string) string {
	n, _ := strconv.Atoi(strings.TrimPrefix(target, "i"))
	return strings.Repeat("\t"+target, 1+n%9)
}

func checkRaceEntries(entries []Entry) error {
	for i, e := range entries {
		if i > 0 && e.Seq <= entries[i-1].Seq {
			return fmt.Errorf("seq %d after %d", e.Seq, entries[i-1].Seq)
		}
		if e.Op != "race" || !strings.HasPrefix(e.Actor, "w") || e.Note != raceNote(e.Target) {
			return fmt.Errorf("seq %d corrupt: %+v", e.Seq, e)
		}
	}
	return nil
}

// TestConcurrentAppendNeverSharesFrame appends from 8 goroutines under
// every pipeline while Range queries and retention compaction run, on a
// clock that keeps expiring old segments. The writer's frame buffer and
// batch slice are reused across batches; under -race this checks that no
// other goroutine ever reads or writes them, and every entry must come
// back with the bytes it was appended with.
func TestConcurrentAppendNeverSharesFrame(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		sim := clock.NewSim(goldenBase)
		const retention = time.Hour
		path := filepath.Join(t.TempDir(), "trail.log")
		l, err := Open(Config{
			Path: path, Pipeline: pipe, Clock: sim,
			MemoryCap: 32, SegmentBytes: 2 << 10, Retention: retention,
		})
		if err != nil {
			t.Fatal(err)
		}
		const writers, per = 8, 250
		appended := make([][]Entry, writers)
		var ww, bg sync.WaitGroup
		stop := make(chan struct{})
		loop := func(fn func() error) {
			bg.Add(1)
			go func() {
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := fn(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		loop(func() error {
			got, err := l.Range(goldenBase, goldenBase.Add(1000*time.Hour))
			if err != nil {
				return err
			}
			return checkRaceEntries(got)
		})
		loop(func() error {
			_, err := l.Compact()
			return err
		})
		loop(func() error {
			sim.Advance(time.Minute)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		for w := 0; w < writers; w++ {
			ww.Add(1)
			go func(w int) {
				defer ww.Done()
				for i := 0; i < per; i++ {
					target := "i" + strconv.Itoa(w*per+i)
					e, err := l.Append(Entry{Actor: "w" + strconv.Itoa(w), Op: "race", Target: target, OK: i%2 == 0, Note: raceNote(target)})
					if err != nil {
						t.Error(err)
						return
					}
					appended[w] = append(appended[w], e)
				}
			}(w)
		}
		ww.Wait()
		close(stop)
		bg.Wait()

		got, err := l.Range(goldenBase, goldenBase.Add(1000*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRaceEntries(got); err != nil {
			t.Fatal(err)
		}
		bySeq := make(map[uint64]Entry, len(got))
		for _, e := range got {
			bySeq[e.Seq] = e
		}
		// Entries inside the retention window can never have been
		// compacted away: every one must be there, intact.
		cutoff := sim.Now().Add(-retention)
		kept := 0
		for _, es := range appended {
			for _, e := range es {
				if e.Time.Before(cutoff) {
					continue
				}
				kept++
				if g, ok := bySeq[e.Seq]; !ok || g.Target != e.Target || g.Actor != e.Actor || g.OK != e.OK {
					t.Fatalf("seq %d: got %+v (present %v), want %+v", e.Seq, g, ok, e)
				}
			}
		}
		if kept == 0 {
			t.Fatal("no entries inside the retention window; the check is vacuous")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var replayed []Entry
		if err := Replay(path, nil, func(e Entry) error {
			replayed = append(replayed, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := checkRaceEntries(replayed); err != nil {
			t.Fatal(err)
		}
	})
}
