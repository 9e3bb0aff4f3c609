package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// outDir holds data dirs while a run lasts and result files after it,
// relative to the directory the benchmark runs from.
const outDir = ".bench_build"

// rounds is how many times a run sets up a fresh stack and replays the
// script on it, each round a rounds-th of -seconds long. An end-to-end run
// reports the median round, so a burst of host noise that slows one round
// does not move the result; a traced run pools the rounds.
const rounds = 5

// An end-to-end run repeats a round during which the host kept more than
// maxSteal of the machine's CPU time from it (steal time, which no code
// change can cause), up to maxRounds rounds in all and while its rounds
// have run for less than retryShare times -seconds, and reports the rounds
// it stole least from. On a shared 2-core host a round with 13% steal
// completed a third fewer controller-rel ops than one with none. The time
// limit, not the count, bounds the retries of a workload whose set-up is
// slow, so every workload's run stays within about the same length.
const (
	maxSteal   = 0.02
	maxRounds  = 10
	retryShare = 2.5
)

// After each round's timed loop an end-to-end run closes and reopens the
// round's stack again and again until the reopens took recoveryPerRound,
// and at least minReopens times. recovery_s is the median of the reopens
// of the reported rounds, so they are spread over the run like the rounds.
// A fixed time rather than a fixed count gives a short reopen more
// samples: a regulator-tcp reopen takes about 0.08 s and varies by a
// factor of two with the host's load.
const (
	recoveryPerRound = time.Second
	minReopens       = 3
)

// closedLoopCap bounds a closed loop's round, in multiples of its length, when
// the system is too slow to finish its script.
const closedLoopCap = 3

// maxHarnessShare is how large the harness's own cost per op may be next
// to the median latency before a traced run is declared invalid.
const maxHarnessShare = 0.05

// maxLateShare bounds an open loop's median send lateness the same way.
const maxLateShare = 0.25

// roundFigures are what one round measured.
type roundFigures struct {
	Throughput float64   `json:"throughput_ops_s"`
	P50        float64   `json:"latency_p50_us"`
	Alloc      float64   `json:"alloc_bytes_per_op"`
	Setup      float64   `json:"setup_s"`
	Reopens    []float64 `json:"recovery_s"`
	// Steal is the share of the machine's CPU time the host took during
	// the timed loop.
	Steal float64 `json:"host_steal_share"`
	Used  bool    `json:"used"`
	lats  []int64 // latencies in ns, sorted
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured, written under outDir/results.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	Loop     string  `json:"loop"`
	Oracle   float64 `json:"oracle_correctness_pct"`
	// Problems lists every check that failed; empty means correct.
	Problems   []string `json:"problems"`
	Ops        int      `json:"ops"`
	Failed     int      `json:"failed"`
	ErrorRatio float64  `json:"error_ratio"`
	// FoundShare is, per query type, the share of ops whose answer
	// counted at least one record, key or entry.
	FoundShare    map[string]float64 `json:"found_share"`
	Samples       int                `json:"latency_samples"`
	HighestTail   float64            `json:"highest_tail_percentile"`
	HighestTailUs float64            `json:"highest_tail_us"`
	// Rounds holds every round's figures, least stolen first; the result
	// reports the medians of the used ones.
	Rounds  []roundFigures    `json:"rounds"`
	Metrics map[string]metric `json:"metrics"`
	Ungated map[string]metric `json:"ungated_metrics,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: customer-kv | controller-rel | regulator-tcp")
	seed := fs.Int64("seed", 1, "seed every input is generated from (>= 0)")
	seconds := fs.Int("seconds", 10, "length of the timed run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seed < 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of customer-kv, controller-rel, regulator-tcp), -seed >= 0, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	rep, err := bench(w, *seed, *seconds, *trace == 1, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: len(rep.Problems) == 0, Attempted: rep.Ops, Failed: rep.Failed, Metrics: rep.Metrics}
	if err := writeReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload: the oracle gate, set-up, the timed loop, the
// durability gate around the reopen, and the metrics of the mode asked for.
func bench(w workload, seed int64, seconds int, traced bool, out io.Writer) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep := &report{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Host: hostInfo(root, w.flush), Metrics: map[string]metric{}, Problems: []string{}}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	// core.Config treats seed 0 as unset, so every seed is shifted by one.
	cfgSeed := seed + 1

	oc, err := oracleGate(w, filepath.Join(root, "oracle"), cfgSeed)
	if err != nil {
		return nil, fmt.Errorf("oracle gate: %w", err)
	}
	rep.Oracle = oc.Score()
	if oc.Total == 0 || oc.Matched != oc.Total {
		problem("oracle gate: %d of %d responses match (%v)", oc.Matched, oc.Total, oc.Mismatches)
	}

	roundDur := time.Duration(seconds) * time.Second / rounds
	nOps := int(w.rate * roundDur.Seconds())
	rep.Loop = fmt.Sprintf("open loop at %.0f ops/s, %d workers, %d rounds of %v", w.rate, workers, rounds, roundDur)
	if w.rate == 0 {
		nOps = int(float64(w.opsPerSecond) * roundDur.Seconds())
		rep.Loop = fmt.Sprintf("closed loop, %d workers, %d rounds of %d ops", workers, rounds, nOps)
	}
	sc, err := newScript(core.Config{Records: records, Threads: workers, Seed: cfgSeed}, w.mix, nOps, w.eraseFrac, time.Now())
	if err != nil {
		return nil, err
	}

	var wire atomic.Int64
	o := openOpts{wire: &wire}
	var tr *tracer
	if traced {
		tr = newTracer()
		o.tr = tr
	}
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	// reopen closes the stack and opens it again from dir, replaying its
	// logs, and returns how long the open took.
	reopen := func(dir string) (time.Duration, error) {
		cerr := st.close()
		st = nil
		if cerr != nil {
			return 0, fmt.Errorf("close: %w", cerr)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = w.open(dir, o); err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		return time.Since(t0), nil
	}
	var (
		dir          string
		space        core.SpaceUsage
		tm           *timing
		done         []roundFigures
		found, total = map[core.QueryType]int{}, map[core.QueryType]int{}
		// What the traced run pools over its rounds.
		all       = &timing{}
		reg       = newRegDelta()
		last      obs.Snapshot
		wireBytes int64
		off       runtimeSample
	)
	roundCap := roundDur
	if w.rate == 0 {
		roundCap *= closedLoopCap
	}
	calm := 0 // rounds the host stole little from
	retryUntil := time.Now().Add(time.Duration(retryShare * float64(seconds) * float64(time.Second)))
	for k := 0; k < rounds || !traced && calm < rounds && k < maxRounds && time.Now().Before(retryUntil); k++ {
		if st != nil {
			cerr := st.close()
			st = nil
			if cerr != nil {
				return nil, fmt.Errorf("close: %w", cerr)
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(root, fmt.Sprintf("data-%d", k))
		// Collecting first keeps a collection triggered by earlier work out
		// of the timed set-up, so the rounds start alike.
		runtime.GC()
		var rf roundFigures
		t0 := time.Now()
		if st, err = setUp(w, sc, dir, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rf.Setup = time.Since(t0).Seconds()
		if space, err = st.db.SpaceUsage(); err != nil {
			return nil, err
		}
		runtime.GC()

		snap0, wire0 := obs.Default().Snapshot(false), wire.Load()
		rt0, steal0 := readRuntime(), stealSeconds()
		if traced {
			stop, offc := make(chan struct{}), make(chan runtimeSample)
			go func() { offc <- toggle(tr, 100*time.Millisecond, stop) }()
			tm = runLoop(st.db, sc, workers, roundCap, w.rate, tr)
			close(stop)
			off = off.add(<-offc)
		} else {
			tm = runLoop(st.db, sc, workers, roundCap, w.rate, nil)
		}
		rt1, steal := readRuntime(), stealSeconds()-steal0
		last = obs.Default().Snapshot(false)
		reg.add(snap0, last)
		wireBytes += wire.Load() - wire0
		all.pool(tm)

		rep.Ops += tm.ops
		rep.Failed += tm.fails
		if tm.fails > 0 {
			problem("round %d: %d of %d ops failed, first: %v", k, tm.fails, tm.ops, tm.firstErr)
		}
		if tm.bad > 0 {
			problem("round %d: %d answers differ from the script's expectation", k, tm.bad)
		}
		for i, v := range tm.n {
			if v == notRun {
				continue
			}
			q := sc.queries[sc.ops[i].q]
			total[q]++
			if v > 0 {
				found[q]++
			}
			if !traced || !tm.traced[i] {
				rf.lats = append(rf.lats, tm.lat[i])
			}
		}
		rf.lats = sortedCopy(rf.lats)
		p50, _ := percentile(rf.lats, 50)
		rf.P50 = float64(p50) / 1e3
		rf.Throughput = float64(tm.ops) / tm.elapsed.Seconds()
		rf.Alloc = rt1.sub(rt0).allocBytes / float64(max(tm.ops, 1))
		rf.Steal = steal / (tm.elapsed.Seconds() * float64(runtime.NumCPU()))
		if rf.Steal <= maxSteal {
			calm++
		}
		var spent time.Duration
		for j := 0; !traced && (j < minReopens || spent < recoveryPerRound); j++ {
			d, err := reopen(dir)
			if err != nil {
				return nil, err
			}
			spent += d
			rf.Reopens = append(rf.Reopens, d.Seconds())
		}
		done = append(done, rf)
	}
	sc.records = nil
	rep.ErrorRatio = float64(rep.Failed) / float64(max(rep.Ops, 1))
	rep.FoundShare = map[string]float64{}
	for q, n := range total {
		rep.FoundShare[string(q)] = float64(found[q]) / float64(n)
	}
	aofBytes, walBytes := dirBytes(dir, ".aof"), dirBytes(dir, ".wal")

	// An end-to-end run has reopened the last round's stack already; the
	// gate checks it, reopens it once more and checks it again.
	ex := sc.expect(tm)
	before, err := durabilityGate(st.db, ex, nil)
	if err != nil {
		problem("before reopen: %v", err)
	}
	if _, err := reopen(dir); err != nil {
		return nil, err
	}
	if _, err := durabilityGate(st.db, ex, before); err != nil {
		problem("after reopen: %v", err)
	}
	fmt.Fprintf(out, "durability gate: %d erased keys absent, %d exact and %d written records read back, before and after reopen\n",
		len(ex.erased), len(ex.exact), len(ex.data))

	// The figures come from the rounds the host stole least from: their
	// medians, and the tail, which needs samples, from them together.
	sort.SliceStable(done, func(i, j int) bool { return done[i].Steal < done[j].Steal })
	var tput, p50s, allocs, setups, reopened []float64
	var pooled []int64
	for i := range done {
		done[i].Used = i < rounds
		if !done[i].Used {
			continue
		}
		tput = append(tput, done[i].Throughput)
		p50s = append(p50s, done[i].P50)
		allocs = append(allocs, done[i].Alloc)
		setups = append(setups, done[i].Setup)
		reopened = append(reopened, done[i].Reopens...)
		pooled = append(pooled, done[i].lats...)
	}
	rep.Rounds = done
	pooled = sortedCopy(pooled)
	rep.Samples = len(pooled)
	p50 := median(p50s)
	p99ns, beyond := percentile(pooled, 99)
	p99 := float64(p99ns) / 1e3
	if !traced && beyond < minBeyond {
		return nil, fmt.Errorf("only %d latency samples, too few for a p99 with %d beyond it", len(pooled), minBeyond)
	}
	rep.HighestTail = highestTail(len(pooled))
	tail, _ := percentile(pooled, rep.HighestTail)
	rep.HighestTailUs = float64(tail) / 1e3

	if !traced {
		// The p99 is printed and recorded but left out of the result line:
		// on a shared 2-core host its run-to-run spread, set by collector
		// and fsync stalls, is wider than any bound a regression gate could
		// hold it to.
		rep.Ungated = map[string]metric{"latency_p99_us": {p99, "us"}}
		rep.Metrics = map[string]metric{
			"throughput_ops_s":   {median(tput), "ops/s"},
			"latency_p50_us":     {p50, "us"},
			"setup_s":            {median(setups), "s"},
			"recovery_s":         {median(reopened), "s"},
			"space_factor":       {space.Factor(), "ratio"},
			"alloc_bytes_per_op": {median(allocs), "B/op"},
			"rss_peak_mib":       {peakRSSMiB(), "MiB"},
		}
	} else {
		spans, unmatched := tr.finished()
		lm := layerMetrics(w, sc, all, spans, reg, last, off, float64(wireBytes), aofBytes, walBytes, space.PersonalBytes)
		lm["trace.unmatched_spans"] = metric{float64(unmatched), "count"}
		rep.Metrics = lm
		if h := lm["client.harness_ns_per_op"].Value / 1e3; h >= maxHarnessShare*p50 {
			problem("harness costs %.2f us per op, not below %.0f%% of the %.2f us median latency", h, maxHarnessShare*100, p50)
		}
		// The generator shares two cores with the server, so its p99
		// lateness follows the same CPU bursts the due-time latency
		// measures; typical sends must be on time and the tail it adds
		// must stay inside the tail it measures.
		late50, late99 := lm["client.gen_late_p50_us"].Value, lm["client.gen_late_p99_us"].Value
		if w.rate > 0 && (late50 >= maxLateShare*p50 || late99 >= p99) {
			problem("generator ran late by %.1f us at p50 and %.1f us at p99; need below %.0f%% of the %.1f us median and below the %.1f us p99 latency",
				late50, late99, maxLateShare*100, p50, p99)
		}
		if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d.spans.tsv", w.name, seed)), spans); err != nil {
			return nil, err
		}
	}
	printReport(out, rep, p50)
	return rep, nil
}

// layerMetrics computes the per-layer metrics of a traced run from its
// pooled rounds: span-derived times from the traced ops, counts from the
// obs registry over the timed loops, runtime figures from their untraced
// stretches. last is the registry at the end, for its cumulative
// histograms.
func layerMetrics(w workload, sc *script, tm *timing, spans []span, reg regDelta, last obs.Snapshot,
	off runtimeSample, wireBytes float64, aofBytes, walBytes, personal int64) map[string]metric {
	lt := analyze(spans)
	ops := float64(tm.ops)
	nCore := float64(max(lt.calls[layerCore], 1))
	us := func(ns int64) float64 { return float64(ns) / 1e3 / nCore }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	counter := func(name string) float64 { return reg.counters[name] }
	histMean := func(name string) float64 { return ratio(reg.sums[name], reg.counts[name]) }

	var svcOn, svcOff []int64
	var lateSamples []int64
	for i, v := range tm.n {
		if v == notRun {
			continue
		}
		if tm.traced[i] {
			svcOn = append(svcOn, tm.svc[i])
		} else {
			svcOff = append(svcOff, tm.svc[i])
		}
		if tm.late[i] >= 0 {
			lateSamples = append(lateSamples, tm.late[i])
		}
	}
	meanUs := func(xs []int64) float64 {
		var sum int64
		for _, x := range xs {
			sum += x
		}
		return ratio(float64(sum)/1e3, float64(len(xs)))
	}
	lateSorted := sortedCopy(lateSamples)
	late50, _ := percentile(lateSorted, 50)
	late99, _ := percentile(lateSorted, 99)
	client, untraced := meanUs(svcOn), meanUs(svcOff)
	coreBusy := us(lt.busy[layerCore])

	var logQueries []int64
	var logEntries, selKeys, selCalls float64
	for _, s := range spans {
		switch {
		case s.layer == layerCore && s.method == mGetLogs:
			logQueries = append(logQueries, s.end-s.start)
			logEntries += float64(s.n)
		case s.layer == layerEngine && (s.method == eSelect || s.method == eSelectKeys):
			selKeys += float64(s.n)
			selCalls++
		}
	}
	logP50, _ := percentile(sortedCopy(logQueries), 50)
	leafParent := layerCore
	if lt.calls[layerShard] > 0 {
		leafParent = layerShard
	}
	// The harness's cost, measured on its own against a no-op DB, plus the
	// layers' self times and the engine time below them, over the client's
	// per-op time: time no span sees, such as the decorators' own cost,
	// lowers the share. Over the wire the transport is known only as the
	// client time the server does not account for, so the share is not
	// defined on the open-loop workload, the one served over the wire, and
	// reads 0 there.
	harness := harnessNsPerOp(sc, workers)
	var accounted float64
	if w.rate == 0 {
		accounted = ratio(harness/1e3+us(lt.self[layerCore])+us(lt.self[layerShard])+us(lt.covered[leafParent]), client)
	}
	untracedOps := float64(len(svcOff))

	m := map[string]metric{
		"client.harness_ns_per_op": {harness, "ns"},
		"client.gen_late_p50_us":   {float64(late50) / 1e3, "us"},
		"client.gen_late_p99_us":   {float64(late99) / 1e3, "us"},

		"runtime.gc_cpu_fraction":   {ratio(off.gcCPU, off.totalCPU), "ratio"},
		"runtime.gc_cycles_per_kop": {ratio(off.gcCycles*1000, untracedOps), "1/kop"},

		"core.self_us_per_op":      {us(lt.self[layerCore]), "us"},
		"core.engine_calls_per_op": {ratio(float64(lt.children[layerCore]), nCore), "count"},

		"audit.entries_per_op":            {ratio(counter("audit_appended_total"), ops), "count"},
		"audit.entries_per_batch":         {ratio(counter("audit_appended_total"), counter("audit_batches_total")), "count"},
		"audit.bytes_per_entry":           {ratio(counter("audit_bytes_total"), counter("audit_appended_total")), "B"},
		"audit.query_p50_us":              {float64(logP50) / 1e3, "us"},
		"audit.entries_per_query":         {ratio(logEntries, float64(len(logQueries))), "count"},
		"kvstore.busy_us_per_op":          {0, "us"},
		"kvstore.calls_per_op":            {0, "count"},
		"relstore.busy_us_per_op":         {0, "us"},
		"relstore.calls_per_op":           {0, "count"},
		"relstore.keys_per_select":        {0, "count"},
		"kvstore.lock_contention_per_op":  {ratio(counter("kvstore_lock_contention_total"), ops), "count"},
		"kvstore.full_scans":              {counter("kvstore_full_scans_total"), "count"},
		"kvstore.aof_ops_per_batch":       {histMean("kvstore_aof_batch_ops"), "count"},
		"kvstore.aof_bytes_per_user_byte": {ratio(float64(aofBytes), float64(personal)), "ratio"},
		"wal.lsns_per_fsync":              {histMean("wal_group_commit_lsns"), "count"},
		"wal.fsync_p50_us":                {0, "us"},
		"wal.bytes_per_user_byte":         {ratio(float64(walBytes), float64(personal)), "ratio"},

		"shard.fanout_per_call":     {ratio(float64(lt.children[layerShard]), float64(lt.calls[layerShard])), "count"},
		"shard.self_us_per_op":      {us(lt.self[layerShard]), "us"},
		"shard.slowest_child_ratio": {ratio(lt.slowestRatio, float64(lt.fanouts)), "ratio"},

		"server.transport_us_per_op": {0, "us"},
		"wire.bytes_per_op":          {ratio(wireBytes, ops), "B"},
		"server.frames_per_op":       {ratio(counter("server_frames_total"), ops), "count"},
		"server.pipeline_depth_p50":  {float64(last.Hists["server_pipeline_depth"].P50), "count"},

		"trace.overhead_us_per_op": {client - untraced, "us"},
		"trace.overhead_share":     {ratio(client-untraced, untraced), "ratio"},
		"trace.accounted_share":    {accounted, "ratio"},
	}
	for _, p := range []string{"validate", "acl", "transit", "audit"} {
		m["core.phase_"+p+"_us"] = metric{histMean(`gdpr_phase_latency_ns{phase="`+p+`"}`) / 1e3, "us"}
	}
	m[w.engine+".busy_us_per_op"] = metric{us(lt.busy[layerEngine]), "us"}
	m[w.engine+".calls_per_op"] = metric{ratio(float64(lt.calls[layerEngine]), nCore), "count"}
	if w.engine == "relstore" {
		m["relstore.keys_per_select"] = metric{ratio(selKeys, selCalls), "count"}
		m["wal.fsync_p50_us"] = metric{float64(last.Hists["wal_fsync_ns"].P50) / 1e3, "us"}
	}
	if w.rate > 0 {
		m["server.transport_us_per_op"] = metric{client - coreBusy, "us"}
	}
	return m
}

// regDelta sums what the obs registry counted over several timed loops,
// each on its own stack.
type regDelta struct {
	counters, sums, counts map[string]float64 // counters; histogram sums and sample counts
}

func newRegDelta() regDelta {
	return regDelta{counters: map[string]float64{}, sums: map[string]float64{}, counts: map[string]float64{}}
}

// add adds what was counted between snapshots s0 and s1.
func (d regDelta) add(s0, s1 obs.Snapshot) {
	for name, v := range s1.Counters {
		d.counters[name] += float64(v - s0.Counters[name])
	}
	for name, h := range s1.Hists {
		d.sums[name] += float64(h.Sum - s0.Hists[name].Sum)
		d.counts[name] += float64(h.Count - s0.Hists[name].Count)
	}
}

func printReport(out io.Writer, rep *report, p50 float64) {
	h := rep.Host
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%v: %s\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Loop)
	fmt.Fprintf(out, "host: cores=%d gomaxprocs=%d go=%s commit=%s data_fs=%s flush=%v\n",
		h.Cores, h.GOMAXPROCS, h.GoVersion, h.Commit, h.DataFS, h.Flush)
	fmt.Fprintf(out, "oracle gate: %.1f%%; ops=%d failed=%d error_ratio=%g; latency samples=%d, p50=%.1f us, p%g=%.1f us\n",
		rep.Oracle, rep.Ops, rep.Failed, rep.ErrorRatio, rep.Samples, p50, rep.HighestTail, rep.HighestTailUs)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
		if strings.HasPrefix(n, "latency_") {
			fmt.Fprintf(out, " (n=%d)", rep.Samples)
		}
		fmt.Fprintln(out)
	}
	queries := make([]string, 0, len(rep.FoundShare))
	for q := range rep.FoundShare {
		queries = append(queries, q)
	}
	sort.Strings(queries)
	fmt.Fprint(out, "share of ops that found a record:")
	for _, q := range queries {
		fmt.Fprintf(out, " %s=%.3f", q, rep.FoundShare[q])
	}
	fmt.Fprintln(out)
	for n, m := range rep.Ungated {
		fmt.Fprintf(out, "  %-34s %14.4f %s (n=%d; not gated)\n", n, m.Value, m.Unit, rep.Samples)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
}

func writeReport(rep *report) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, trace)), b, 0o644)
}
