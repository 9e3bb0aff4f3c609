package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
)

// Shared by every workload; see doc.go for why.
const (
	records      = 20_000
	workers      = 2
	kvStripes    = 8
	regShards    = 2
	regConns     = 2
	loadBatch    = 128
	regulatorOps = 500 // arrivals per second, a third of the ~1,500 the stack completes saturated
)

// workload is one benchmarked stack and Table 2a mix.
type workload struct {
	name string
	mix  core.WorkloadName
	// rate is the open-loop arrival rate in ops/s; 0 makes a closed loop.
	rate float64
	// opsPerSecond sizes a closed loop's script to about what the stack
	// completes per second on a 2-core host. A closed loop runs its whole
	// script: the mixes erase records, so a run that did more ops would
	// also change the data the later ops see.
	opsPerSecond int
	// eraseFrac of the records are erased during set-up.
	eraseFrac float64
	// engine names the storage layer the per-layer metrics report.
	engine string
	flush  map[string]string
	open   func(dir string, o openOpts) (*stack, error)
}

var workloads = map[string]workload{
	"customer-kv": {
		name: "customer-kv", mix: core.Customer, opsPerSecond: 7_000, engine: "kvstore",
		flush: map[string]string{"aof": "everysec", "audit": "batched pipeline, everysec fsync"},
		open:  openCustomerKV,
	},
	"controller-rel": {
		name: "controller-rel", mix: core.Controller, opsPerSecond: 350, engine: "relstore",
		flush: map[string]string{"wal": "synchronous commit (fsync before ack)", "audit": "batched pipeline, everysec fsync"},
		open:  openControllerRel,
	},
	"regulator-tcp": {
		name: "regulator-tcp", mix: core.Regulator, rate: regulatorOps, eraseFrac: 0.01, engine: "kvstore",
		flush: map[string]string{"aof": "everysec, per shard", "audit": "batched pipeline, everysec fsync"},
		open:  openRegulatorTCP,
	},
}

// openOpts are what differ between the correctness gate, the timed run
// and the traced run of one stack.
type openOpts struct {
	clk    clock.Clock // nil: the real clock
	frozen bool        // background expiry and TTL daemons off, for the oracle
	tr     *tracer     // decorate each layer boundary when set
	wire   *atomic.Int64
}

// stack is an assembled system under test.
type stack struct {
	db    core.DB // what the timed loop calls
	close func() error
}

// compliance is full compliance with metadata indexes, for every workload.
func compliance() core.Compliance {
	c := core.Full()
	c.MetadataIndexing = true
	return c
}

func redisConfig(dir string, o openOpts) core.RedisConfig {
	return core.RedisConfig{
		Dir: dir, Compliance: compliance(), Clock: o.clk,
		DisableBackgroundExpiry: o.frozen, AuditPolicy: audit.PipeBatched, KVStripes: kvStripes,
	}
}

func openCustomerKV(dir string, o openOpts) (*stack, error) {
	cfg := redisConfig(dir, o)
	eng, err := core.NewRedisEngine(cfg)
	if err != nil {
		return nil, err
	}
	db, err := core.Wrap(traceEngine(eng, o.tr, layerEngine, layerCore), cfg.WrapConfig())
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &stack{db: traceDB(db, o.tr), close: db.Close}, nil
}

func openControllerRel(dir string, o openOpts) (*stack, error) {
	clk := o.clk
	if clk == nil {
		clk = clock.NewReal()
	}
	cfg := core.PostgresConfig{
		Dir: dir, Compliance: compliance(), Clock: clk, DisableTTLDaemon: o.frozen,
		SynchronousCommit: true, AuditPolicy: audit.PipeBatched,
	}
	wc := cfg.WrapConfig()
	log, err := core.OpenAudit(wc, clk)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewPostgresEngine(cfg, log)
	if err != nil {
		log.Close()
		return nil, err
	}
	wc.Audit = log
	db, err := core.Wrap(traceEngine(eng, o.tr, layerEngine, layerCore), wc)
	if err != nil {
		eng.Close()
		log.Close()
		return nil, err
	}
	return &stack{db: traceDB(db, o.tr), close: db.Close}, nil
}

// openRegulatorTCP serves two Redis-model shards behind one middleware on
// a loopback listener the benchmark owns, and dials it.
func openRegulatorTCP(dir string, o openOpts) (*stack, error) {
	engines := make([]core.Engine, 0, regShards)
	closeEngines := func() {
		for _, e := range engines {
			e.Close()
		}
	}
	for i := 0; i < regShards; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			closeEngines()
			return nil, err
		}
		e, err := core.NewRedisEngine(redisConfig(sub, o))
		if err != nil {
			closeEngines()
			return nil, err
		}
		engines = append(engines, traceEngine(e, o.tr, layerEngine, layerShard))
	}
	router, err := shard.New(engines)
	if err != nil {
		closeEngines()
		return nil, err
	}
	db, err := core.Wrap(traceEngine(router, o.tr, layerShard, layerCore), redisConfig(dir, o).WrapConfig())
	if err != nil {
		router.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	if o.wire != nil {
		ln = countingListener{ln, o.wire}
	}
	srv := server.New(traceDB(db, o.tr), server.Config{AuditPolicy: audit.PipeBatched.String()})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stopServer := func() error {
		srv.Close()
		err := <-served
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		return err
	}
	cli, err := remote.Dial(remote.Config{Addr: ln.Addr().String(), ConnsPerRole: regConns})
	if err != nil {
		stopServer()
		return nil, err
	}
	return &stack{db: cli, close: func() error {
		err := cli.Close()
		if serr := stopServer(); err == nil {
			err = serr
		}
		return err
	}}, nil
}

// ingest loads recs as the controller with the benchmark's workers: in
// batches when the DB has a bulk path, record by record otherwise.
func ingest(db core.DB, recs []gdpr.Record) error {
	bc, batched := db.(core.BatchCreator)
	step := 1
	if batched {
		step = loadBatch
	}
	actor := core.ControllerActor()
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(step))) - step
				if lo >= len(recs) {
					return
				}
				hi := min(lo+step, len(recs))
				var err error
				if batched {
					err = bc.CreateRecords(actor, recs[lo:hi])
				} else {
					err = db.CreateRecord(actor, recs[lo])
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
	}
	return nil
}

// setUp opens a fresh stack in dir, ingests the script's records and makes
// its set-up erasures.
func setUp(w workload, sc *script, dir string, o openOpts) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := w.open(dir, o)
	if err != nil {
		return nil, err
	}
	err = ingest(st.db, sc.records)
	for _, k := range sc.erased {
		if err != nil {
			break
		}
		_, err = st.db.DeleteRecord(core.ControllerActor(), gdpr.ByKey(k))
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}
