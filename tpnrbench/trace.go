package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/storage"
	"repro/internal/transport"
)

// tracer records spans from the benchmark's side of each layer
// boundary: wrappers around the client's transport connections, the
// provider's blob store and each shard's journal replicator. Nothing
// inside the program is instrumented; everything is kept in memory and
// aggregated when the run ends.
//
// A session is traced only when it is registered with begin. The
// transport and store wrappers find a session through the transaction
// IDs and object keys it bound with op; while no traced session is in
// flight they forward with one atomic load.
type tracer struct {
	// enabled is set for the whole traced run (--trace 1). The
	// replicator and checkpoint spans carry no transaction, so they are
	// only summed; the run reads their deltas over the timed phase.
	enabled bool
	active  atomic.Int32

	mu    sync.Mutex
	byTxn map[string]*sessTrace
	byKey map[string]*sessTrace
	done  []*sessTrace

	repl spanAgg
	ckpt spanAgg
}

func newTracer(enabled bool) *tracer {
	return &tracer{
		enabled: enabled,
		byTxn:   make(map[string]*sessTrace),
		byKey:   make(map[string]*sessTrace),
	}
}

// spanAgg sums spans that have no session parent.
type spanAgg struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (a *spanAgg) add(d time.Duration) {
	a.n.Add(1)
	a.ns.Add(int64(d))
}

// Span layers recorded under a session.
const (
	spanSend     = "transport.send"
	spanRecvWait = "transport.recv_wait"
	spanPut      = "storage.put"
	spanGet      = "storage.get"
)

type span struct {
	layer string
	dur   time.Duration
	bytes int
}

// opTrace is one protocol operation (upload, download, audit, abort or
// resolve) of a session; frames counts its client-side transport
// frames in both directions.
type opTrace struct {
	kind    string
	frames  int
	retried bool
}

type sessTrace struct {
	id  string
	dur time.Duration

	mu    sync.Mutex
	spans []span
	ops   []*opTrace
	cur   *opTrace
	txns  []string
	keys  []string
}

func (s *sessTrace) record(sp span, frame bool) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	if frame && s.cur != nil {
		s.cur.frames++
	}
	s.mu.Unlock()
}

// begin registers a traced session.
func (t *tracer) begin(id string) *sessTrace {
	t.active.Add(1)
	return &sessTrace{id: id}
}

// op opens the next operation of s and binds the transaction ID and
// object key it touches, so that frames and store calls find s.
func (t *tracer) op(s *sessTrace, kind, txn, key string) *opTrace {
	o := &opTrace{kind: kind}
	t.mu.Lock()
	t.byTxn[txn] = s
	if key != "" {
		t.byKey[key] = s
	}
	t.mu.Unlock()
	s.mu.Lock()
	s.ops = append(s.ops, o)
	s.cur = o
	s.txns = append(s.txns, txn)
	if key != "" {
		s.keys = append(s.keys, key)
	}
	s.mu.Unlock()
	return o
}

// end unbinds s and keeps it for aggregation.
func (t *tracer) end(s *sessTrace, dur time.Duration) {
	s.dur = dur
	t.mu.Lock()
	for _, txn := range s.txns {
		if t.byTxn[txn] == s {
			delete(t.byTxn, txn)
		}
	}
	for _, k := range s.keys {
		if t.byKey[k] == s {
			delete(t.byKey, k)
		}
	}
	t.done = append(t.done, s)
	t.mu.Unlock()
	t.active.Add(-1)
}

func (t *tracer) byTxnID(txn string) *sessTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byTxn[txn]
}

func (t *tracer) byObjectKey(key string) *sessTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[key]
}

// frameTxn reads the transaction ID from a TPNR frame; control frames
// (overload sheds) and undecodable bytes yield "".
func frameTxn(raw []byte) string {
	m, err := core.DecodeMessage(raw)
	if err != nil {
		return ""
	}
	h, err := m.Header()
	if err != nil {
		return ""
	}
	return h.TxnID
}

// tracedConn wraps a client connection. Send runs on the session's
// goroutine and Recv on the client's receive pump, so the reply wait
// is measured from the end of the last Send on the same connection.
type tracedConn struct {
	transport.Conn
	tr *tracer

	mu      sync.Mutex
	lastTxn string
	sentAt  time.Time
}

func (c *tracedConn) Send(msg []byte) error {
	if c.tr.active.Load() == 0 {
		return c.Conn.Send(msg)
	}
	txn := frameTxn(msg)
	start := time.Now()
	err := c.Conn.Send(msg)
	end := time.Now()
	c.mu.Lock()
	if txn == "" {
		txn = c.lastTxn
	}
	c.lastTxn = txn
	c.sentAt = end
	c.mu.Unlock()
	if s := c.tr.byTxnID(txn); s != nil {
		s.record(span{layer: spanSend, dur: end.Sub(start), bytes: len(msg)}, true)
	}
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil || c.tr.active.Load() == 0 {
		return msg, err
	}
	now := time.Now()
	txn := frameTxn(msg)
	c.mu.Lock()
	if txn == "" {
		txn = c.lastTxn
	}
	sent := c.sentAt
	c.sentAt = time.Time{}
	c.mu.Unlock()
	if s := c.tr.byTxnID(txn); s != nil {
		var wait time.Duration
		if !sent.IsZero() {
			wait = now.Sub(sent)
		}
		s.record(span{layer: spanRecvWait, dur: wait, bytes: len(msg)}, true)
	}
	return msg, err
}

// tracedStore wraps the provider's blob store. A store call takes its
// parent session from the object key the session bound.
type tracedStore struct {
	storage.Store
	tr *tracer
}

func (s *tracedStore) Put(key string, data []byte, wantMD5 cryptoutil.Digest) (storage.Object, error) {
	if s.tr.active.Load() == 0 {
		return s.Store.Put(key, data, wantMD5)
	}
	start := time.Now()
	obj, err := s.Store.Put(key, data, wantMD5)
	if sess := s.tr.byObjectKey(key); sess != nil {
		sess.record(span{layer: spanPut, dur: time.Since(start), bytes: len(data)}, false)
	}
	return obj, err
}

func (s *tracedStore) Get(key string) (storage.Object, error) {
	if s.tr.active.Load() == 0 {
		return s.Store.Get(key)
	}
	start := time.Now()
	obj, err := s.Store.Get(key)
	if sess := s.tr.byObjectKey(key); sess != nil {
		sess.record(span{layer: spanGet, dur: time.Since(start), bytes: len(obj.Data)}, false)
	}
	return obj, err
}

// Tamper forwards the insider capability of the wrapped store.
func (s *tracedStore) Tamper(key string, fixDigest bool, mutate func([]byte) []byte) error {
	t, ok := s.Store.(storage.Tamperer)
	if !ok {
		return errors.New("tpnrbench: wrapped store cannot tamper")
	}
	return t.Tamper(key, fixDigest, mutate)
}

// tracedReplicator times each shard's quorum wait. Replicate(lsn)
// carries no transaction, so its spans are aggregated, not parented.
type tracedReplicator struct {
	core.Replicator
	tr *tracer
}

func (r *tracedReplicator) Replicate(lsn uint64) error {
	if !r.tr.enabled {
		return r.Replicator.Replicate(lsn)
	}
	start := time.Now()
	err := r.Replicator.Replicate(lsn)
	r.tr.repl.add(time.Since(start))
	return err
}
