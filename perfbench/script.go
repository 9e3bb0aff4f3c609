package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gdpr"
)

// op is one pre-generated operation. It holds only small indexes into the
// script's tables, so the script adds nothing for the garbage collector to
// scan while the timed loop runs, and the loop builds each call's
// arguments from shared strings without formatting or allocating.
type op struct {
	q uint8 // index into script.queries
	a int32 // record index, or attribute-value index for the secondary class
	b int32 // payload index (update data, create record, objection, share, verify keys)
}

// script is every input of one run, generated from the seed before any
// timing starts: the records to load, the erasures made during set-up, and
// the operation sequence the timed loop replays.
type script struct {
	ds      *core.Dataset
	queries []core.QueryType
	ops     []op

	records []gdpr.Record // load set; dropped before the timed run
	keys    []string      // KeyAt(i)
	users   []string      // UserName(u)
	owners  []acl.Actor   // CustomerActor(u)

	purposes   []string   // PurposeName(p)
	purposeSet [][]string // {PurposeName(p)}, shared delta values
	shareSet   [][]string // {ShareName(s)}, shared delta values
	shares     []string   // ShareName(s)
	data       []string   // update-data payloads
	creates    []gdpr.Record
	ttlExpiry  time.Time

	// erased are the keys erased during set-up (regulator); verify holds
	// the flattened key lists VERIFY-DELETION asks about, four per op.
	erased []string
	verify []string
	// liveByUser is how many records each user holds after set-up; the
	// read-only regulator loop checks READ-METADATA-BY-USR against it.
	liveByUser []int32
}

// verifyKeys is how many keys one VERIFY-DELETION names, as in core's
// regulator runner.
const verifyKeys = 4

// newScript generates every input of a run from cfg (whose Seed drives all
// randomness), the Table 2a mix of the workload, and the op count.
// eraseFrac of the records are erased during set-up.
func newScript(cfg core.Config, name core.WorkloadName, nOps int, eraseFrac float64, loadTime time.Time) (*script, error) {
	mix, ok := core.DefaultWorkloads()[name]
	if !ok {
		return nil, fmt.Errorf("unknown Table 2a workload %q", name)
	}
	ds := core.NewDataset(cfg, loadTime)
	cfg = ds.Cfg
	sc := &script{ds: ds, queries: mix.Queries, ttlExpiry: loadTime.Add(cfg.DefaultTTL)}
	sc.records = make([]gdpr.Record, cfg.Records)
	sc.keys = make([]string, cfg.Records)
	for i := range sc.records {
		sc.records[i] = ds.RecordAt(i)
		sc.keys[i] = sc.records[i].Key
	}
	sc.users = make([]string, ds.Users)
	sc.owners = make([]acl.Actor, ds.Users)
	for u := range sc.users {
		sc.users[u] = ds.UserName(u)
		sc.owners[u] = ds.CustomerActor(u)
	}
	sc.purposes = make([]string, cfg.Purposes)
	sc.purposeSet = make([][]string, cfg.Purposes)
	for p := range sc.purposes {
		sc.purposes[p] = ds.PurposeName(p)
		sc.purposeSet[p] = []string{sc.purposes[p]}
	}
	sc.shares = make([]string, cfg.Shares)
	sc.shareSet = make([][]string, cfg.Shares)
	for s := range sc.shares {
		sc.shares[s] = ds.ShareName(s)
		sc.shareSet[s] = []string{sc.shares[s]}
	}

	r := rand.New(rand.NewSource(cfg.Seed + 1000))
	sc.liveByUser = make([]int32, ds.Users)
	for i := range sc.records {
		sc.liveByUser[i%ds.Users]++
	}
	if eraseFrac > 0 {
		for _, i := range r.Perm(cfg.Records)[:int(float64(cfg.Records)*eraseFrac)] {
			sc.erased = append(sc.erased, sc.keys[i])
			sc.liveByUser[i%ds.Users]--
		}
	}

	keys := generator(r, mix.Dist, int64(cfg.Records))
	secondary := generator(r, mix.SecondaryDist, int64(max(cfg.Purposes, cfg.Shares, cfg.Decisions, cfg.Sources)))
	qidx := make(map[core.QueryType]uint8, len(mix.Queries))
	for i, q := range mix.Queries {
		qidx[q] = uint8(i)
	}
	chooser := dist.NewWeighted(r, mix.Queries, mix.Weights)
	var erasing []int // ops that delete by key; their keys are chosen below
	sc.ops = make([]op, nOps)
	for n := range sc.ops {
		q := chooser.Next()
		o := op{q: qidx[q], a: int32(keys.Next())}
		switch q {
		case core.QUpdateDataByKey:
			o.b = int32(len(sc.data))
			sc.data = append(sc.data, fmt.Sprintf("%0*d", cfg.DataSize, r.Intn(1_000_000)))
		case core.QUpdateMetaByKey:
			o.b = int32(r.Intn(cfg.Purposes))
		case core.QDeleteByKey:
			erasing = append(erasing, n)
		case core.QCreateRecord:
			// Shaped like core's controller create: the load template with
			// a fresh key, payload and owner.
			idx := len(sc.creates) + 1
			rec := ds.RecordAt(0)
			rec.Key = fmt.Sprintf("rec-new-%08d", idx)
			rec.Data = fmt.Sprintf("%0*d", cfg.DataSize, idx%1_000_000)
			rec.Meta.User = ds.UserAt(int(o.a))
			rec.Meta.Expiry = sc.ttlExpiry
			o.b = int32(len(sc.creates))
			sc.creates = append(sc.creates, rec)
		case core.QDeleteByPurpose, core.QUpdateMetaByPur:
			o.a = int32(secondary.Next() % int64(cfg.Purposes))
		case core.QUpdateMetaByShare:
			o.a = int32(secondary.Next() % int64(cfg.Shares))
		case core.QUpdateMetaByUser:
			o.b = int32(r.Intn(cfg.Shares))
		case core.QVerifyDeletion:
			if len(sc.erased) == 0 {
				return nil, fmt.Errorf("workload %s verifies deletions but erases nothing at set-up", name)
			}
			o.b = int32(len(sc.verify))
			for j := 0; j < verifyKeys; j++ {
				sc.verify = append(sc.verify, sc.erased[r.Intn(len(sc.erased))])
			}
		case core.QReadDataByUser, core.QReadMetaByKey,
			core.QDeleteByTTL, core.QDeleteByUser, core.QReadMetaByUser, core.QGetSystemLogs:
		default:
			return nil, fmt.Errorf("query %s is outside the benchmarked mixes", q)
		}
		sc.ops[n] = o
	}
	sc.chooseErasures(r, erasing)
	return sc, nil
}

// chooseErasures gives each delete-by-key op of the script a record no
// other op names, a different one each time, in an order drawn from r;
// only when those run out does it take the records named least. Zipf-drawn
// erasures would remove the hot keys within the first few hundred ops,
// after which most key reads and updates miss (60% did in a 21,000-op
// script) and the workload would no longer do the point-path work it is
// meant to. Uniform erasures would leave the work to chance: the hottest
// key takes about a tenth of the zipf draws, and whether a seed erases it
// early moved the written log by a fifth and the time to replay it by
// two fifths.
func (sc *script) chooseErasures(r *rand.Rand, erasing []int) {
	if len(erasing) == 0 {
		return
	}
	named := make([]int, len(sc.keys))
	for _, o := range sc.ops {
		switch sc.queries[o.q] {
		case core.QReadMetaByKey, core.QUpdateDataByKey, core.QUpdateMetaByKey:
			named[o.a]++
		}
	}
	order := r.Perm(len(sc.keys))
	sort.SliceStable(order, func(i, j int) bool { return named[order[i]] < named[order[j]] })
	for j, n := range erasing {
		sc.ops[n].a = int32(order[j%len(order)])
	}
}

// generator mirrors core's choice of index generator for a Table 2a
// distribution.
func generator(r *rand.Rand, d core.Dist, n int64) dist.Generator {
	if d == core.DistZipf {
		return dist.NewScrambledZipfian(r, n)
	}
	return dist.NewUniform(r, n)
}

// logWindow is the GET-SYSTEM-LOGS range. The regulator runs at a fixed
// arrival rate, so the entries one window covers do not grow when the
// system gets faster.
const logWindow = time.Second

// exec runs op i against db and returns the result count (records
// returned, records changed, or keys still present). bad reports an answer
// the script can check offline and that was wrong. No op of the script may
// be denied: customers act on their own records, and the controller and
// the regulator use only verbs their role holds, so an access denial is
// returned as the op's error and counts as a failure.
func (sc *script) exec(db core.DB, i int) (n int, bad bool, err error) {
	o := sc.ops[i]
	ds := sc.ds
	k := int(o.a)
	switch sc.queries[o.q] {
	case core.QReadDataByUser:
		u := k % ds.Users
		var recs []gdpr.Record
		recs, err = db.ReadData(sc.owners[u], gdpr.ByUser(sc.users[u]))
		n = len(recs)
	case core.QReadMetaByKey:
		var recs []gdpr.Record
		recs, err = db.ReadMetadata(sc.owners[k%ds.Users], gdpr.ByKey(sc.keys[k]))
		n = len(recs)
	case core.QUpdateDataByKey:
		n, err = db.UpdateData(sc.owners[k%ds.Users], sc.keys[k], sc.data[o.b])
	case core.QUpdateMetaByKey:
		delta := gdpr.Delta{Attr: gdpr.AttrObjection, Op: gdpr.DeltaAdd, Values: sc.purposeSet[o.b]}
		n, err = db.UpdateMetadata(sc.owners[k%ds.Users], gdpr.ByKey(sc.keys[k]), delta)
	case core.QDeleteByKey:
		n, err = db.DeleteRecord(sc.owners[k%ds.Users], gdpr.ByKey(sc.keys[k]))

	case core.QCreateRecord:
		err = db.CreateRecord(core.ControllerActor(), sc.creates[o.b])
		n = 1
	case core.QDeleteByPurpose:
		n, err = db.DeleteRecord(core.ControllerActor(), gdpr.ByPurpose(sc.purposes[k]))
	case core.QDeleteByTTL:
		n, err = db.DeleteRecord(core.ControllerActor(), gdpr.ByExpiredAt(time.Now()))
	case core.QDeleteByUser:
		n, err = db.DeleteRecord(core.ControllerActor(), gdpr.ByUser(sc.users[k%ds.Users]))
	case core.QUpdateMetaByPur:
		delta := gdpr.Delta{Attr: gdpr.AttrTTL, Op: gdpr.DeltaSet, Expiry: sc.ttlExpiry}
		n, err = db.UpdateMetadata(core.ControllerActor(), gdpr.ByPurpose(sc.purposes[k]), delta)
	case core.QUpdateMetaByUser:
		delta := gdpr.Delta{Attr: gdpr.AttrSharing, Op: gdpr.DeltaAdd, Values: sc.shareSet[o.b]}
		n, err = db.UpdateMetadata(core.ControllerActor(), gdpr.ByUser(sc.users[k%ds.Users]), delta)
	case core.QUpdateMetaByShare:
		delta := gdpr.Delta{Attr: gdpr.AttrSharing, Op: gdpr.DeltaRemove, Values: sc.shareSet[k]}
		n, err = db.UpdateMetadata(core.ControllerActor(), gdpr.ByShare(sc.shares[k]), delta)

	case core.QReadMetaByUser:
		u := k % ds.Users
		var recs []gdpr.Record
		recs, err = db.ReadMetadata(core.RegulatorActor(), gdpr.ByUser(sc.users[u]))
		n = len(recs)
		bad = err == nil && n != int(sc.liveByUser[u])
		for _, rec := range recs {
			bad = bad || rec.Data != ""
		}
	case core.QGetSystemLogs:
		now := time.Now()
		var entries []audit.Entry
		entries, err = db.GetSystemLogs(core.RegulatorActor(), now.Add(-logWindow), now)
		n = len(entries)
	case core.QVerifyDeletion:
		n, err = db.VerifyDeletion(core.RegulatorActor(), sc.verify[o.b:o.b+verifyKeys])
		bad = err == nil && n != 0
	}
	return n, bad, err
}
