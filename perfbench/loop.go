package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/obs"
)

// Per-op result marks in timing.n; counts are >= 0.
const (
	notRun = -1
	failed = -2
)

// timing holds the measurements of one timed loop, indexed by script
// position.
type timing struct {
	lat    []int64 // ns from due time to completion; closed loop: due when sent
	svc    []int64 // ns from send to completion
	late   []int64 // generator lateness in ns, -1 where it does not apply
	n      []int32 // result count, or a mark above
	traced []bool  // op started while tracing was on

	ops      int // ops completed, failed ones included
	fails    int
	bad      int // answers the script could check and found wrong
	elapsed  time.Duration
	firstErr error
}

// runLoop replays the script against db with the given number of workers.
// With rate > 0 it is an open loop: op i is due at start + i/rate whatever
// happened before, its latency runs from that due time, and its lateness
// is how far past the due time a worker that was waiting for it sent it.
// Otherwise it is a closed loop that runs the script to its end, or stops
// sending at the deadline; its lateness is the gap between a worker's
// reply and its next send. Workers claim ops in script order.
func runLoop(db core.DB, sc *script, workers int, dur time.Duration, rate float64, tr *tracer) *timing {
	n := len(sc.ops)
	tm := &timing{
		lat: make([]int64, n), svc: make([]int64, n), late: make([]int64, n),
		n: make([]int32, n), traced: make([]bool, n),
	}
	for i := range tm.n {
		tm.n[i] = notRun
		tm.late[i] = -1
	}
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prevEnd time.Time
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var due, sent time.Time
				if rate > 0 {
					due = start.Add(time.Duration(i) * interval)
					if d := time.Until(due); d > 0 {
						sleep(d)
						sent = time.Now()
						tm.late[i] = int64(sent.Sub(due))
					} else {
						sent = time.Now()
					}
				} else {
					sent = time.Now()
					if sent.After(deadline) {
						return
					}
					due = sent
					if !prevEnd.IsZero() {
						tm.late[i] = int64(sent.Sub(prevEnd))
					}
				}
				if tr != nil {
					tm.traced[i] = tr.on.Load()
				}
				cnt, bad, err := sc.exec(db, i)
				end := time.Now()
				prevEnd = end
				tm.lat[i] = int64(end.Sub(due))
				tm.svc[i] = int64(end.Sub(sent))
				tm.n[i] = int32(cnt)
				if err != nil {
					tm.n[i] = failed
				}
				if tm.n[i] == failed || bad {
					mu.Lock()
					if bad {
						tm.bad++
					}
					if tm.n[i] == failed {
						tm.fails++
						if tm.firstErr == nil {
							tm.firstErr = err
						}
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	tm.elapsed = time.Since(start)
	for _, v := range tm.n {
		if v != notRun {
			tm.ops++
		}
	}
	return tm
}

// pool appends the ops of u, another round's timing, to t.
func (t *timing) pool(u *timing) {
	t.lat = append(t.lat, u.lat...)
	t.svc = append(t.svc, u.svc...)
	t.late = append(t.late, u.late...)
	t.n = append(t.n, u.n...)
	t.traced = append(t.traced, u.traced...)
	t.ops += u.ops
	t.fails += u.fails
	t.bad += u.bad
	t.elapsed += u.elapsed
	if t.firstErr == nil {
		t.firstErr = u.firstErr
	}
}

// sleep blocks the calling goroutine's thread for d in the kernel. Go
// timers park in epoll with millisecond resolution, which would make the
// generator up to a millisecond late on every send it waits for.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// noopDB answers every query at once with nothing. Timing the loop against
// it gives the harness's own cost per op.
type noopDB struct{}

func (noopDB) CreateRecord(acl.Actor, gdpr.Record) error                    { return nil }
func (noopDB) ReadData(acl.Actor, gdpr.Selector) ([]gdpr.Record, error)     { return nil, nil }
func (noopDB) ReadMetadata(acl.Actor, gdpr.Selector) ([]gdpr.Record, error) { return nil, nil }
func (noopDB) UpdateData(acl.Actor, string, string) (int, error)            { return 0, nil }
func (noopDB) UpdateMetadata(acl.Actor, gdpr.Selector, gdpr.Delta) (int, error) {
	return 0, nil
}
func (noopDB) DeleteRecord(acl.Actor, gdpr.Selector) (int, error) { return 0, nil }
func (noopDB) GetSystemLogs(acl.Actor, time.Time, time.Time) ([]audit.Entry, error) {
	return nil, nil
}
func (noopDB) GetSystemFeatures(acl.Actor) (map[string]string, error) { return nil, nil }
func (noopDB) VerifyDeletion(acl.Actor, []string) (int, error)        { return 0, nil }
func (noopDB) SpaceUsage() (core.SpaceUsage, error)                   { return core.SpaceUsage{}, nil }
func (noopDB) Close() error                                           { return nil }

// harnessNsPerOp runs the closed timed loop over the whole script against
// noopDB and returns the worker time it spent per op. Open-loop workloads
// use the same loop body without the pacing sleeps.
func harnessNsPerOp(sc *script, workers int) float64 {
	tm := runLoop(noopDB{}, sc, workers, time.Minute, 0, nil)
	return float64(tm.elapsed.Nanoseconds()) * float64(workers) / float64(tm.ops)
}

// runtimeSample reads the process counters the run reports.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		ss[i].Name = name
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// toggle switches tracing on and off every period until stop is closed, so
// traced and untraced ops interleave over the same stretch of the script.
// While tracing is on the middleware samples every op's phases instead of
// one in obs.DefaultSampling. It returns the runtime counters accumulated
// while tracing was off.
func toggle(tr *tracer, period time.Duration, stop <-chan struct{}) runtimeSample {
	var off runtimeSample
	last := readRuntime()
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if !tr.on.Load() {
				off = off.add(readRuntime().sub(last))
			}
			tr.on.Store(false)
			obs.Default().SetSampling(obs.DefaultSampling)
			return off
		case <-tick.C:
			now := readRuntime()
			if !tr.on.Load() {
				off = off.add(now.sub(last))
			}
			last = now
			on := !tr.on.Load()
			sampling := obs.DefaultSampling
			if on {
				sampling = 1
			}
			obs.Default().SetSampling(sampling)
			tr.on.Store(on)
		}
	}
}
