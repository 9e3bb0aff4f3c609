package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gdpr"
)

// Oracle gate size: small enough to run before every timed run.
const (
	oracleRecords = 600
	oracleOps     = 400
)

// oracleGate runs core.Validate on the workload's stack configuration at
// small size, on a frozen simulated clock with the expiry daemons off as
// the oracle requires, and returns the correctness report.
func oracleGate(w workload, dir string, seed int64) (core.CorrectnessReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return core.CorrectnessReport{}, err
	}
	sim := clock.NewSim(time.Time{})
	st, err := w.open(dir, openOpts{clk: sim, frozen: true})
	if err != nil {
		return core.CorrectnessReport{}, err
	}
	defer st.close()
	cfg := core.Config{Records: oracleRecords, Operations: oracleOps, Threads: workers, Seed: seed}
	ds, _, err := core.Load(st.db, cfg, sim)
	if err != nil {
		return core.CorrectnessReport{}, err
	}
	return core.Validate(st.db, ds, w.mix, sim, true)
}

// expectations are what the executed script says the final state holds.
type expectations struct {
	// erased are loaded keys an acknowledged delete removed. Loaded keys
	// are never re-created, so each must stay absent.
	erased []string
	// exact maps sampled keys to their whole expected encoding: loaded
	// records no executed op wrote.
	exact map[string]string
	// data maps sampled keys to the payload their only acknowledged write
	// left, for records the script wrote once and never erased.
	data map[string]string
}

// readbackSample bounds how many keys of each kind the gate reads back.
const readbackSample = 128

// expect derives the expectations from the ops that ran and their results.
func (sc *script) expect(tm *timing) expectations {
	ds := sc.ds
	erased := make(map[string]bool)
	for _, k := range sc.erased {
		erased[k] = true
	}
	byUser := make(map[string]bool)
	byPurpose := make(map[string]bool)
	touched := make(map[string]bool) // loaded keys an executed op named
	writes := make(map[string]int)   // key -> acknowledged writes of its data
	lastData := make(map[string]string)
	attrWrites := false // the mix rewrites loaded metadata by attribute
	for i, o := range sc.ops {
		if tm.n[i] < 0 {
			continue
		}
		k := sc.keys[o.a]
		switch sc.queries[o.q] {
		case core.QDeleteByKey:
			erased[k] = true
			touched[k] = true
		case core.QUpdateMetaByKey:
			touched[k] = true
		case core.QUpdateDataByKey:
			touched[k] = true
			if tm.n[i] == 1 {
				writes[k]++
				lastData[k] = sc.data[o.b]
			}
		case core.QDeleteByUser:
			byUser[sc.users[int(o.a)%ds.Users]] = true
		case core.QDeleteByPurpose:
			byPurpose[sc.purposes[o.a]] = true
		case core.QCreateRecord:
			rec := sc.creates[o.b]
			writes[rec.Key]++
			lastData[rec.Key] = rec.Data
		case core.QUpdateMetaByPur, core.QUpdateMetaByUser, core.QUpdateMetaByShare:
			attrWrites = true
		}
	}
	ex := expectations{exact: make(map[string]string), data: make(map[string]string)}
	for i := 0; i < ds.Cfg.Records; i++ {
		rec := ds.RecordAt(i)
		if byUser[rec.Meta.User] || anyIn(rec.Meta.Purposes, byPurpose) {
			erased[rec.Key] = true
		}
		if !attrWrites && !erased[rec.Key] && !touched[rec.Key] && len(ex.exact) < readbackSample {
			ex.exact[rec.Key] = gdpr.Encode(rec)
		}
	}
	written := make([]string, 0, len(writes))
	for k, n := range writes {
		if n == 1 && !erased[k] {
			written = append(written, k)
		}
	}
	sort.Strings(written)
	for _, k := range written {
		if len(ex.data) == readbackSample {
			break
		}
		// A later attribute delete may have erased a created record.
		if rec, ok := sc.createdRecord(k); ok && (byUser[rec.Meta.User] || anyIn(rec.Meta.Purposes, byPurpose)) {
			continue
		}
		ex.data[k] = lastData[k]
	}
	for k := range erased {
		ex.erased = append(ex.erased, k)
	}
	sort.Strings(ex.erased)
	return ex
}

func (sc *script) createdRecord(key string) (gdpr.Record, bool) {
	i := sort.Search(len(sc.creates), func(i int) bool { return sc.creates[i].Key >= key })
	if i < len(sc.creates) && sc.creates[i].Key == key {
		return sc.creates[i], true
	}
	return gdpr.Record{}, false
}

func anyIn(xs []string, set map[string]bool) bool {
	for _, x := range xs {
		if set[x] {
			return true
		}
	}
	return false
}

// readBack reads every sampled key as the controller and returns its
// encoding ("" when absent).
func readBack(db core.DB, ex expectations) (map[string]string, error) {
	got := make(map[string]string, len(ex.exact)+len(ex.data))
	read := func(k string) error {
		recs, err := db.ReadData(core.ControllerActor(), gdpr.ByKey(k))
		if err != nil {
			return fmt.Errorf("read back %s: %w", k, err)
		}
		got[k] = ""
		if len(recs) == 1 {
			got[k] = gdpr.Encode(recs[0])
		}
		return nil
	}
	for k := range ex.exact {
		if err := read(k); err != nil {
			return nil, err
		}
	}
	for k := range ex.data {
		if err := read(k); err != nil {
			return nil, err
		}
	}
	return got, nil
}

// durabilityGate checks the state against the expectations: every erased
// key absent, every sampled write read back as written and, when before
// is given, identical to the reads made before the stack was reopened.
func durabilityGate(db core.DB, ex expectations, before map[string]string) (map[string]string, error) {
	for lo := 0; lo < len(ex.erased); lo += 512 {
		batch := ex.erased[lo:min(lo+512, len(ex.erased))]
		present, err := db.VerifyDeletion(core.RegulatorActor(), batch)
		if err != nil {
			return nil, fmt.Errorf("verify deletion: %w", err)
		}
		if present != 0 {
			return nil, fmt.Errorf("%d of %d erased keys are present again", present, len(batch))
		}
	}
	got, err := readBack(db, ex)
	if err != nil {
		return nil, err
	}
	for k, want := range ex.exact {
		if got[k] != want {
			return nil, fmt.Errorf("record %s reads back %q, want %q", k, got[k], want)
		}
	}
	for k, want := range ex.data {
		rec, err := gdpr.Decode(got[k])
		if got[k] == "" || err != nil || rec.Data != want {
			return nil, fmt.Errorf("record %s reads back %q, want data %q", k, got[k], want)
		}
	}
	for k, v := range before {
		if got[k] != v {
			return nil, fmt.Errorf("record %s changed across reopen: %q, then %q", k, v, got[k])
		}
	}
	return got, nil
}

// dirBytes sums the sizes of the files under dir whose names contain
// fragment.
func dirBytes(dir, fragment string) int64 {
	var total int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), fragment) {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
