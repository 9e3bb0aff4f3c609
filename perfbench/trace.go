package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gdpr"
)

// The traced run wraps each layer's public boundary in a decorator that
// records spans: the core.DB (compliance middleware and audit trail), the
// shard router handed to core.Wrap, and each storage engine. Untraced runs
// install none of them.
//
// The program carries no request id across these boundaries, so a child
// call finds its parent by what it names: among the open spans of the
// parent layer, the earliest-started one whose tags include the child's
// key or selector. A DB call is tagged with its selector or keys; an
// engine Select or SelectKeys adds the keys it returned to its parent, so
// the middleware's follow-up Update and Delete calls on those keys match.
// Spans of the wire layer are not matched per request: the wire carries no
// trace id, so client and server time are compared as totals per op.

// layer names a traced boundary.
type layer uint8

const (
	layerCore   layer = iota // core.DB: compliance middleware and audit trail
	layerShard               // shard router
	layerEngine              // storage engine: kvstore or relstore model
	numLayers
)

var layerNames = [numLayers]string{"core", "shard", "engine"}

// method names the traced call.
type method uint8

const (
	mCreate method = iota
	mReadData
	mReadMeta
	mUpdateData
	mUpdateMeta
	mDelete
	mGetLogs
	mVerify
	ePut
	eGet
	eSelect
	eSelectKeys
	eUpdate
	eDelete
	eExists
	numMethods
)

var methodNames = [numMethods]string{
	"CreateRecord", "ReadData", "ReadMetadata", "UpdateData", "UpdateMetadata",
	"DeleteRecord", "GetSystemLogs", "VerifyDeletion",
	"Put", "Get", "Select", "SelectKeys", "Update", "Delete", "Exists",
}

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch; req is the id of the DB-boundary span the call serves.
type span struct {
	id, parent, req uint32
	layer           layer
	method          method
	start, end      int64
	n               int32 // records, keys or entries the call returned or changed
}

type openSpan struct {
	span
	up    *openSpan
	match []string
}

func (s *openSpan) has(tag string) bool {
	for _, m := range s.match {
		if m == tag {
			return true
		}
	}
	return false
}

// tracer keeps every finished span in memory until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool  // DB-boundary calls start spans only while set
	live  atomic.Int64 // open spans; children skip the lock when zero
	ids   atomic.Uint32

	mu        sync.Mutex
	open      [numLayers][]*openSpan
	spans     []span
	unmatched int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// active reports whether any traced call is open, so that decorators skip
// building tags while tracing is off.
func (t *tracer) active() bool { return t.live.Load() > 0 }

// root opens a DB-boundary span matching children by tags(), or returns
// nil while tracing is off.
func (t *tracer) root(m method, tags func() []string) *openSpan {
	if !t.on.Load() {
		return nil
	}
	s := &openSpan{span: span{id: t.ids.Add(1), layer: layerCore, method: m, start: t.now()}, match: tags()}
	s.req = s.id
	t.mu.Lock()
	t.open[layerCore] = append(t.open[layerCore], s)
	t.mu.Unlock()
	t.live.Add(1)
	return s
}

// child opens a span at layer l under the earliest-started open span of
// layer parent that carries tag. It returns nil when no traced parent is
// open, so a call is traced only as part of a traced DB call. The new span
// matches its own children by keys, or by tag when keys is nil.
func (t *tracer) child(l, parent layer, m method, tag string, keys []string) *openSpan {
	if !t.active() {
		return nil
	}
	own := keys
	if own == nil {
		own = []string{tag}
	}
	start := t.now()
	t.mu.Lock()
	var p *openSpan
	for _, c := range t.open[parent] {
		if (p == nil || c.start < p.start) && c.has(tag) {
			p = c
		}
	}
	if p == nil {
		t.unmatched++
		t.mu.Unlock()
		return nil
	}
	s := &openSpan{span: span{id: t.ids.Add(1), parent: p.id, req: p.req, layer: l, method: m, start: start}, up: p, match: own}
	t.open[l] = append(t.open[l], s)
	t.mu.Unlock()
	t.live.Add(1)
	return s
}

// tagParent lets the parent of s match later calls naming keys.
func (t *tracer) tagParent(s *openSpan, keys []string) {
	if s == nil {
		return
	}
	t.mu.Lock()
	s.up.match = append(s.up.match, keys...)
	t.mu.Unlock()
}

// end closes s with result count n.
func (t *tracer) end(s *openSpan, n int) {
	if s == nil {
		return
	}
	s.end = t.now()
	s.n = int32(n)
	t.mu.Lock()
	open := t.open[s.layer]
	for i, c := range open {
		if c == s {
			open[i] = open[len(open)-1]
			t.open[s.layer] = open[:len(open)-1]
			break
		}
	}
	t.spans = append(t.spans, s.span)
	t.mu.Unlock()
	t.live.Add(-1)
}

// finished returns the recorded spans and the count of child calls that
// found no parent (calls in flight when tracing switched on).
func (t *tracer) finished() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans, t.unmatched
}

// writeSpans writes spans as tab-separated lines, one per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tlayer\tmethod\tstart_ns\tend_ns\tn")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.req,
			layerNames[s.layer], methodNames[s.method], s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func selTag(sel gdpr.Selector) string {
	if sel.Attr == gdpr.AttrKey {
		return sel.Value
	}
	if sel.Attr == gdpr.AttrTTL {
		return "ttl"
	}
	return sel.String()
}

func recordKeys(recs []gdpr.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	return keys
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tracedEngine decorates a core.Engine at layer l whose calls are made on
// behalf of open spans of layer parent.
type tracedEngine struct {
	core.Engine
	t         *tracer
	l, parent layer
}

// tracedBatchEngine keeps the bulk-insert path visible to core.Wrap.
type tracedBatchEngine struct {
	*tracedEngine
	be core.BatchEngine
}

func (e tracedBatchEngine) PutBatch(recs []gdpr.Record) error { return e.be.PutBatch(recs) }

func traceEngine(e core.Engine, t *tracer, l, parent layer) core.Engine {
	if t == nil {
		return e
	}
	te := &tracedEngine{Engine: e, t: t, l: l, parent: parent}
	if be, ok := e.(core.BatchEngine); ok {
		return tracedBatchEngine{te, be}
	}
	return te
}

func (e *tracedEngine) Put(rec gdpr.Record) error {
	s := e.t.child(e.l, e.parent, ePut, rec.Key, nil)
	err := e.Engine.Put(rec)
	e.t.end(s, 1)
	return err
}

func (e *tracedEngine) Get(key string) (gdpr.Record, bool, error) {
	s := e.t.child(e.l, e.parent, eGet, key, nil)
	rec, ok, err := e.Engine.Get(key)
	e.t.end(s, b2i(ok))
	return rec, ok, err
}

func (e *tracedEngine) Select(sel gdpr.Selector) ([]gdpr.Record, error) {
	var s *openSpan
	if e.t.active() {
		s = e.t.child(e.l, e.parent, eSelect, selTag(sel), nil)
	}
	recs, err := e.Engine.Select(sel)
	if s != nil {
		e.t.tagParent(s, recordKeys(recs))
	}
	e.t.end(s, len(recs))
	return recs, err
}

func (e *tracedEngine) SelectKeys(sel gdpr.Selector) ([]string, error) {
	var s *openSpan
	if e.t.active() {
		s = e.t.child(e.l, e.parent, eSelectKeys, selTag(sel), nil)
	}
	keys, err := e.Engine.SelectKeys(sel)
	e.t.tagParent(s, keys)
	e.t.end(s, len(keys))
	return keys, err
}

func (e *tracedEngine) Update(key string, mutate func(gdpr.Record) (gdpr.Record, error)) (bool, error) {
	s := e.t.child(e.l, e.parent, eUpdate, key, nil)
	ok, err := e.Engine.Update(key, mutate)
	e.t.end(s, b2i(ok))
	return ok, err
}

func (e *tracedEngine) Delete(keys []string) (int, error) {
	var s *openSpan
	if len(keys) > 0 {
		s = e.t.child(e.l, e.parent, eDelete, keys[0], keys)
	}
	n, err := e.Engine.Delete(keys)
	e.t.end(s, n)
	return n, err
}

func (e *tracedEngine) Exists(key string) (bool, error) {
	s := e.t.child(e.l, e.parent, eExists, key, nil)
	ok, err := e.Engine.Exists(key)
	e.t.end(s, b2i(ok))
	return ok, err
}

// tracedDB decorates the core.DB boundary; its spans are the roots.
type tracedDB struct {
	core.DB
	t *tracer
}

// tracedBatchDB keeps the bulk-create path visible to the loader and the
// server.
type tracedBatchDB struct {
	*tracedDB
	bc core.BatchCreator
}

func (d tracedBatchDB) CreateRecords(a acl.Actor, recs []gdpr.Record) error {
	return d.bc.CreateRecords(a, recs)
}

func traceDB(db core.DB, t *tracer) core.DB {
	if t == nil {
		return db
	}
	td := &tracedDB{DB: db, t: t}
	if bc, ok := db.(core.BatchCreator); ok {
		return tracedBatchDB{td, bc}
	}
	return td
}

func (d *tracedDB) CreateRecord(a acl.Actor, rec gdpr.Record) error {
	s := d.t.root(mCreate, func() []string { return []string{rec.Key} })
	err := d.DB.CreateRecord(a, rec)
	d.t.end(s, 1)
	return err
}

func (d *tracedDB) ReadData(a acl.Actor, sel gdpr.Selector) ([]gdpr.Record, error) {
	s := d.t.root(mReadData, func() []string { return []string{selTag(sel)} })
	recs, err := d.DB.ReadData(a, sel)
	d.t.end(s, len(recs))
	return recs, err
}

func (d *tracedDB) ReadMetadata(a acl.Actor, sel gdpr.Selector) ([]gdpr.Record, error) {
	s := d.t.root(mReadMeta, func() []string { return []string{selTag(sel)} })
	recs, err := d.DB.ReadMetadata(a, sel)
	d.t.end(s, len(recs))
	return recs, err
}

func (d *tracedDB) UpdateData(a acl.Actor, key, data string) (int, error) {
	s := d.t.root(mUpdateData, func() []string { return []string{key} })
	n, err := d.DB.UpdateData(a, key, data)
	d.t.end(s, n)
	return n, err
}

func (d *tracedDB) UpdateMetadata(a acl.Actor, sel gdpr.Selector, delta gdpr.Delta) (int, error) {
	s := d.t.root(mUpdateMeta, func() []string { return []string{selTag(sel)} })
	n, err := d.DB.UpdateMetadata(a, sel, delta)
	d.t.end(s, n)
	return n, err
}

func (d *tracedDB) DeleteRecord(a acl.Actor, sel gdpr.Selector) (int, error) {
	s := d.t.root(mDelete, func() []string { return []string{selTag(sel)} })
	n, err := d.DB.DeleteRecord(a, sel)
	d.t.end(s, n)
	return n, err
}

func (d *tracedDB) GetSystemLogs(a acl.Actor, from, to time.Time) ([]audit.Entry, error) {
	s := d.t.root(mGetLogs, func() []string { return nil })
	entries, err := d.DB.GetSystemLogs(a, from, to)
	d.t.end(s, len(entries))
	return entries, err
}

func (d *tracedDB) VerifyDeletion(a acl.Actor, keys []string) (int, error) {
	s := d.t.root(mVerify, func() []string { return keys })
	n, err := d.DB.VerifyDeletion(a, keys)
	d.t.end(s, n)
	return n, err
}

// countingListener decorates the server's listener: every accepted
// connection counts the bytes it carries in both directions.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// layerTimes is the per-layer accounting of a set of spans.
type layerTimes struct {
	calls [numLayers]int
	busy  [numLayers]int64 // summed span durations
	self  [numLayers]int64 // summed self times
	// covered is the time, summed over parents of layer l, that the union
	// of their children's spans covers: the wall time spent below l.
	covered [numLayers]int64
	// slowestRatio sums, over router calls that fanned out to two or more
	// shards, the slowest child's duration over the mean child duration.
	slowestRatio float64
	fanouts      int
	children     [numLayers]int // children whose parent is at layer l
}

// analyze computes each span's self time: its duration minus the part of
// its interval the union of its children's spans covers.
func analyze(spans []span) layerTimes {
	kids := make(map[uint32][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var lt layerTimes
	for _, s := range spans {
		d := s.end - s.start
		lt.calls[s.layer]++
		lt.busy[s.layer] += d
		ch := kids[s.id]
		cov := covered(s.start, s.end, ch)
		lt.self[s.layer] += d - cov
		lt.covered[s.layer] += cov
		lt.children[s.layer] += len(ch)
		if s.layer == layerShard && len(ch) >= 2 {
			var slowest, sum int64
			for _, c := range ch {
				cd := c.end - c.start
				sum += cd
				slowest = max(slowest, cd)
			}
			if sum > 0 {
				lt.slowestRatio += float64(slowest) * float64(len(ch)) / float64(sum)
				lt.fanouts++
			}
		}
	}
	return lt
}

// covered returns how much of [lo, hi] the union of the children's
// intervals covers, so parallel children that overlap count once.
func covered(lo, hi int64, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, lo), min(c.end, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		curE = max(curE, v[1])
	}
	return total + curE - curS
}
