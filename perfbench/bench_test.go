package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p            float64
		want, beyond int
	}{{50, 500, 500}, {99, 990, 10}, {99.9, 999, 1}, {100, 1000, 0}} {
		v, beyond := percentile(xs, c.p)
		if v != int64(c.want) || beyond != c.beyond {
			t.Errorf("p%g = %d with %d beyond, want %d with %d", c.p, v, beyond, c.want, c.beyond)
		}
	}
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100_000, 99.99}, {10_000, 99.9}, {1_000, 99}, {999, 95}, {200, 95}, {100, 90}, {99, 0}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 {
			xs := make([]int64, c.n)
			if _, beyond := percentile(xs, c.want); beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond", c.n, c.want, beyond)
			}
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	// A router call fans out to two shards whose spans overlap, and a
	// third child runs past the parent's end; the union counts once.
	spans := []span{
		{id: 1, layer: layerCore, start: 0, end: 200},
		{id: 2, parent: 1, layer: layerShard, start: 0, end: 100},
		{id: 3, parent: 2, layer: layerEngine, start: 10, end: 40},
		{id: 4, parent: 2, layer: layerEngine, start: 30, end: 60},
		{id: 5, parent: 2, layer: layerEngine, start: 90, end: 120},
	}
	lt := analyze(spans)
	if got := lt.self[layerShard]; got != 100-60 {
		t.Errorf("router self time = %d, want 40", got)
	}
	if got := lt.self[layerCore]; got != 200-100 {
		t.Errorf("core self time = %d, want 100", got)
	}
	if got := lt.busy[layerEngine]; got != 30+30+30 {
		t.Errorf("engine busy time = %d, want 90", got)
	}
	if got := lt.children[layerShard]; got != 3 {
		t.Errorf("router fan-out = %d, want 3", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestScriptFollowsSeed(t *testing.T) {
	at := time.Unix(1_700_000_000, 0)
	gen := func(seed int64, name core.WorkloadName) *script {
		sc, err := newScript(core.Config{Records: 500, Threads: workers, Seed: seed}, name, 2000, 0.02, at)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	for _, name := range []core.WorkloadName{core.Customer, core.Controller, core.Regulator} {
		a, b, c := gen(7, name), gen(7, name), gen(8, name)
		if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.data, b.data) ||
			!reflect.DeepEqual(a.creates, b.creates) || !reflect.DeepEqual(a.erased, b.erased) ||
			!reflect.DeepEqual(a.records, b.records) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a.ops, c.ops) || reflect.DeepEqual(a.records, c.records) {
			t.Errorf("%s: a different seed gave the same inputs", name)
		}
		seen := map[uint8]bool{}
		for _, o := range a.ops {
			seen[o.q] = true
		}
		if len(seen) != len(a.queries) {
			t.Errorf("%s: script uses %d of the mix's %d queries", name, len(seen), len(a.queries))
		}
	}
}

func TestErasuresTakeRecordsNoOtherOpNames(t *testing.T) {
	sc, err := newScript(core.Config{Records: 2000, Threads: workers, Seed: 3}, core.Customer, 3000, 0, time.Unix(1_700_000_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	named, erased := map[int32]bool{}, map[int32]bool{}
	for _, o := range sc.ops {
		switch sc.queries[o.q] {
		case core.QDeleteByKey:
			if erased[o.a] {
				t.Errorf("record %d erased twice", o.a)
			}
			erased[o.a] = true
		case core.QReadMetaByKey, core.QUpdateDataByKey, core.QUpdateMetaByKey:
			named[o.a] = true
		}
	}
	if len(erased) == 0 {
		t.Fatal("script erases nothing")
	}
	for a := range erased {
		if named[a] {
			t.Errorf("record %d is erased and named by another op", a)
		}
	}
}
