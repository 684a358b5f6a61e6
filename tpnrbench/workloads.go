package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/arbitrator"
	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

const (
	clients = 2 // closed-loop callers, one per core of the reference host
	shards  = 2

	// ingest-r3
	ingestReplicas   = 3
	ingestQuorum     = 2
	ingestMinSize    = 4 << 10
	ingestMaxSize    = 256 << 10
	ingestCkptEvery  = 512 // sessions between Engine.Checkpoint calls
	ingestPayloads   = 128
	retrieveObjects  = 64
	retrieveSize     = 1 << 20
	retrieveDownload = 0.7 // share of downloads; the rest are audits
	auditLeaves      = 4
	disputeSize      = 16 << 10
	disputePayloads  = 32

	warmupPerClient = 4
)

// spec fixes one workload's deployment shape and session body.
type spec struct {
	name    string
	scheme  cryptoutil.Scheme
	journal bool // per-shard fsync=always journal, R=3 quorum 2, cold archive
	// payloads builds the seeded input table before any timer starts.
	payloads func(rng *rand.Rand) []payload
	// preload runs inside setup, before the warm-up sessions.
	preload func(ctx context.Context, e *env) error
	session func(ctx context.Context, r *sessRun) error
}

var specs = map[string]*spec{
	"ingest-r3": {
		name:    "ingest-r3",
		scheme:  cryptoutil.SchemeRSA,
		journal: true,
		// Sizes are stratified over 4-256 KiB and shuffled by the seed, so
		// every seed offers the same size distribution and seeds differ
		// in content and order only.
		payloads: func(rng *rand.Rand) []payload {
			out := make([]payload, ingestPayloads)
			step := (ingestMaxSize - ingestMinSize) / (ingestPayloads - 1)
			for i, j := range rng.Perm(ingestPayloads) {
				out[i] = newPayload(rng, ingestMinSize+j*step)
			}
			return out
		},
		session: ingestSession,
	},
	"retrieve-audit": {
		name:   "retrieve-audit",
		scheme: cryptoutil.SchemeEd25519,
		payloads: func(rng *rand.Rand) []payload {
			out := make([]payload, retrieveObjects)
			for i := range out {
				out[i] = newPayload(rng, retrieveSize)
			}
			return out
		},
		preload: preloadObjects,
		session: retrieveSession,
	},
	"dispute-mix": {
		name:   "dispute-mix",
		scheme: cryptoutil.SchemeRSA,
		payloads: func(rng *rand.Rand) []payload {
			out := make([]payload, disputePayloads)
			for i := range out {
				out[i] = newPayload(rng, disputeSize)
			}
			return out
		},
		session: disputeSession,
	},
}

// payload is one generated object with the digests the NRR must carry.
type payload struct {
	data      []byte
	md5, sha  cryptoutil.Digest
	objectLen uint64
}

func newPayload(rng *rand.Rand, size int) payload {
	data := make([]byte, size)
	rng.Read(data)
	var h evidence.Header
	h.SetDigests(data)
	return payload{data: data, md5: h.DataMD5, sha: h.DataSHA256, objectLen: uint64(size)}
}

// stored is an object uploaded during set-up (retrieve-audit).
type stored struct {
	key, txn string
	p        payload
	root     cryptoutil.Digest
}

// checkError marks a protocol output that violates what the paper
// guarantees, as opposed to an operation that failed outright.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func violation(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// env is one running deployment with the benchmark's wrappers in place.
type env struct {
	spec     *spec
	dir      string
	inputs   []payload
	tr       *tracer
	d        *deploy.Deployment
	pool     *core.SessionPool
	store    *tracedStore
	arb      *arbitrator.Arbitrator
	provKey  cryptoutil.PublicKey
	poolReg  *obs.Registry
	provReg  *obs.Registry
	journals []*wal.WAL
	archives []*archive.Store
	// followers are opened through deploy.Config.ReplicaWAL; the
	// deployment closes them.
	followers []*wal.WAL

	objects [clients][]*stored

	ackMu sync.Mutex
	acked []*evidence.Evidence

	sessions atomic.Int64
	ckptReq  chan struct{}
	ckptDone chan struct{}
	ckpts    int
	ckptErr  error
}

func walDir(root string, s int) string     { return filepath.Join(root, "wal", shard.DirName(s)) }
func archiveDir(root string, s int) string { return filepath.Join(root, "archive", shard.DirName(s)) }
func followerDir(root string, s, r int) string {
	return filepath.Join(walDir(root, s), fmt.Sprintf("replica-%02d", r))
}

// openEnv builds a deployment for sp under dir. Journals, archives and
// follower journals already in dir are reopened; a non-nil blobs is the
// blob store a restarted node finds.
func openEnv(sp *spec, dir string, inputs []payload, tr *tracer, blobs storage.Store) (*env, error) {
	e := &env{spec: sp, dir: dir, inputs: inputs, tr: tr, poolReg: obs.NewRegistry(), provReg: obs.NewRegistry()}
	if blobs == nil {
		blobs = storage.NewMem(nil)
	}
	e.store = &tracedStore{Store: blobs, tr: tr}
	cfg := deploy.Config{
		Scheme:             sp.scheme,
		TestKeys:           true,
		ProviderStore:      e.store,
		ProviderShards:     shards,
		ProviderServerOpts: []core.ServerOption{core.ServerRegistry(e.provReg)},
		TTPServerOpts:      []core.ServerOption{core.ServerRegistry(obs.NewRegistry())},
	}
	if sp.journal {
		for s := 0; s < shards; s++ {
			j, err := wal.Open(walDir(dir, s), wal.Options{Policy: wal.SyncAlways})
			if err != nil {
				e.closeFiles()
				return nil, err
			}
			e.journals = append(e.journals, j)
			a, err := archive.Open(archiveDir(dir, s))
			if err != nil {
				e.closeFiles()
				return nil, err
			}
			e.archives = append(e.archives, a)
		}
		cfg.ProviderShardOpts = func(s int) []core.Option {
			return []core.Option{core.WithJournal(e.journals[s]), core.WithArchive(e.archives[s])}
		}
		cfg.ProviderReplicas = ingestReplicas
		cfg.ProviderQuorum = ingestQuorum
		cfg.ReplicaWAL = func(s, r int) (*wal.WAL, error) {
			w, err := wal.Open(followerDir(dir, s, r), wal.Options{Policy: wal.SyncAlways})
			if err == nil {
				e.followers = append(e.followers, w)
			}
			return w, err
		}
	}
	d, err := deploy.New(cfg)
	if err != nil {
		e.closeFiles()
		return nil, err
	}
	e.d = d
	se, ok := d.Engine.(*core.ShardedEngine)
	if !ok {
		e.close()
		return nil, errors.New("tpnrbench: deployment is not sharded")
	}
	for s, g := range d.ReplicaGroups {
		se.Shard(s).SetReplicator(&tracedReplicator{Replicator: g, tr: tr})
	}
	cert, err := d.CA.Lookup(deploy.ProviderName)
	if err != nil {
		e.close()
		return nil, err
	}
	if e.provKey, err = cert.Key(); err != nil {
		e.close()
		return nil, err
	}
	e.arb = arbitrator.NewWithKey(d.CA.Key(), d.CA.Lookup, nil)
	dial := func(addr string) core.DialFunc {
		return func(ctx context.Context) (transport.Conn, error) {
			c, err := d.Net.DialContext(ctx, addr)
			if err != nil {
				return nil, err
			}
			return &tracedConn{Conn: c, tr: tr}, nil
		}
	}
	e.pool = core.NewSessionPool(d.Client, dial(deploy.ProviderName),
		core.PoolTTPDial(dial(deploy.TTPName)),
		core.PoolShardRing(shard.New(se.N())),
		core.PoolRegistry(e.poolReg))
	return e, nil
}

func (e *env) closeFiles() {
	for _, j := range e.journals {
		j.Close()
	}
	for _, a := range e.archives {
		a.Close()
	}
}

func (e *env) close() {
	if e.pool != nil {
		e.pool.Close()
	}
	if e.d != nil {
		e.d.Close()
	}
	e.closeFiles()
}

// setup builds the deployment, runs the workload's preload and the
// warm-up sessions, and starts the checkpointer on ingest-r3.
func setup(ctx context.Context, sp *spec, dir string, inputs []payload, tr *tracer, seed int64) (*env, error) {
	e, err := openEnv(sp, dir, inputs, tr, nil)
	if err != nil {
		return nil, err
	}
	if sp.preload != nil {
		if err := sp.preload(ctx, e); err != nil {
			e.close()
			return nil, err
		}
	}
	if sp.journal {
		e.startCheckpointer()
	}
	err = forEachClient(func(c int) error {
		wk := newWorker(c, seed^0x5eed, "w")
		for n := 0; n < warmupPerClient; n++ {
			r := &sessRun{e: e, wk: wk}
			if err := sp.session(ctx, r); err != nil {
				return fmt.Errorf("warm-up session %s: %w", wk.txn("s"), err)
			}
			wk.n++
		}
		return nil
	})
	if err != nil {
		e.stopCheckpointer()
		e.close()
		return nil, err
	}
	return e, nil
}

// forEachClient runs fn once per closed-loop client and joins errors.
func forEachClient(fn func(c int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// startCheckpointer runs Engine.Checkpoint each time ingestCkptEvery
// more sessions have completed, so compaction cycles are triggered by
// a count rather than a timer.
func (e *env) startCheckpointer() {
	e.ckptReq = make(chan struct{}, 1)
	e.ckptDone = make(chan struct{})
	go func() {
		defer close(e.ckptDone)
		for range e.ckptReq {
			if e.ckptErr != nil {
				continue
			}
			t := startTimer()
			if _, err := e.d.Engine.Checkpoint(); err != nil {
				e.ckptErr = fmt.Errorf("checkpoint: %w", err)
				continue
			}
			if e.tr.enabled {
				e.tr.ckpt.add(t.elapsed())
			}
			e.ckpts++
		}
	}()
}

func (e *env) stopCheckpointer() {
	if e.ckptReq == nil {
		return
	}
	close(e.ckptReq)
	<-e.ckptDone
	e.ckptReq = nil
}

func (e *env) sessionDone() {
	if n := e.sessions.Add(1); e.ckptReq != nil && n%ingestCkptEvery == 0 {
		select {
		case e.ckptReq <- struct{}{}:
		default: // a checkpoint is still queued; it covers this one too
		}
	}
}

// worker is one closed-loop client's seeded input stream.
type worker struct {
	id     int
	rng    *rand.Rand
	prefix string
	n      int
}

func newWorker(id int, seed int64, prefix string) *worker {
	return &worker{id: id, rng: rand.New(rand.NewSource(seed*1009 + int64(id) + 1)), prefix: prefix}
}

func (w *worker) txn(tag string) string {
	return fmt.Sprintf("%s%d-%06d-%s", w.prefix, w.id, w.n, tag)
}

// sessRun carries one session's trace and its per-operation timings.
type sessRun struct {
	e   *env
	wk  *worker
	st  *sessTrace
	ops []opSample
}

type opSample struct {
	kind string
	ms   float64
}

// do times one operation. Traced sessions also bind the operation's
// transaction and object key, and note whether the pool retried it
// (any pool retry while it ran counts, erring toward exclusion).
func (r *sessRun) do(kind, txn, key string, fn func() error) error {
	var o *opTrace
	var retries int64
	if r.st != nil {
		o = r.e.tr.op(r.st, kind, txn, key)
		retries = r.e.poolRetries()
	}
	t := startTimer()
	err := fn()
	r.ops = append(r.ops, opSample{kind: kind, ms: t.ms()})
	if o != nil && r.e.poolRetries() != retries {
		o.retried = true
	}
	return err
}

func (e *env) poolRetries() int64 { return e.poolReg.Counter("pool_retries_total").Value() }

func (r *sessRun) upload(ctx context.Context, txn, key string, p payload) (*core.UploadResult, error) {
	var res *core.UploadResult
	err := r.do("upload", txn, key, func() (err error) {
		res, err = r.e.pool.Upload(ctx, txn, key, p.data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, checkNRR(res.NRR, txn, p)
}

// checkNRR: the receipt is the provider's NRR for txn and commits to
// the digests of the bytes sent.
func checkNRR(nrr *evidence.Evidence, txn string, p payload) error {
	if nrr == nil || nrr.Header == nil {
		return violation("%s: upload returned no NRR", txn)
	}
	h := nrr.Header
	if h.Kind != evidence.KindNRR || h.TxnID != txn || h.SenderID != deploy.ProviderName {
		return violation("%s: receipt is %s for %s from %s", txn, h.Kind, h.TxnID, h.SenderID)
	}
	if !h.DataMD5.Equal(p.md5) || !h.DataSHA256.Equal(p.sha) || h.ObjectLen != p.objectLen {
		return violation("%s: NRR digests do not match the sent data", txn)
	}
	return nil
}

func (r *sessRun) download(ctx context.Context, txn, key, uploadTxn string) (*core.DownloadResult, error) {
	var res *core.DownloadResult
	err := r.do("download", txn, key, func() (err error) {
		res, err = r.e.pool.Download(ctx, txn, key, uploadTxn)
		return err
	})
	return res, err
}

// checkDownload: the bytes served are the bytes uploaded and the
// client matched them against the agreed upload NRR.
func checkDownload(res *core.DownloadResult, txn, uploadTxn string, p payload) error {
	if !bytes.Equal(res.Data, p.data) {
		return violation("%s: downloaded bytes differ from upload %s", txn, uploadTxn)
	}
	if !res.IntegrityOK || res.AgreedUpload == nil || res.AgreedUpload.Header.TxnID != uploadTxn {
		return violation("%s: download not checked against the NRR of %s", txn, uploadTxn)
	}
	return nil
}

func ingestSession(ctx context.Context, r *sessRun) error {
	txn := r.wk.txn("up")
	p := r.e.inputs[r.wk.rng.Intn(len(r.e.inputs))]
	res, err := r.upload(ctx, txn, "ingest/"+txn, p)
	if err != nil {
		return err
	}
	r.e.ackMu.Lock()
	r.e.acked = append(r.e.acked, res.NRR)
	r.e.ackMu.Unlock()
	r.e.sessionDone()
	return nil
}

// preloadObjects uploads the retrieve-audit working set, each client
// its own half, so that no two sessions ever touch the same object.
func preloadObjects(ctx context.Context, e *env) error {
	return forEachClient(func(c int) error {
		r := &sessRun{e: e, wk: newWorker(c, 0, "pre")}
		for i := c; i < len(e.inputs); i += clients {
			txn := fmt.Sprintf("pre-%03d", i)
			key := fmt.Sprintf("objects/%03d", i)
			res, err := r.upload(ctx, txn, key, e.inputs[i])
			if err != nil {
				return fmt.Errorf("preload %s: %w", txn, err)
			}
			root, _, err := audit.ParseRootNote(res.NRR.Header.Note)
			if err != nil {
				return violation("%s: NRR carries no audit commitment: %v", txn, err)
			}
			e.objects[c] = append(e.objects[c], &stored{key: key, txn: txn, p: e.inputs[i], root: root})
		}
		return nil
	})
}

func retrieveSession(ctx context.Context, r *sessRun) error {
	objs := r.e.objects[r.wk.id]
	o := objs[r.wk.rng.Intn(len(objs))]
	if r.wk.rng.Float64() < retrieveDownload {
		txn := r.wk.txn("dl")
		res, err := r.download(ctx, txn, o.key, o.txn)
		if err != nil {
			return err
		}
		return checkDownload(res, txn, o.txn, o.p)
	}
	var rep *core.AuditReport
	err := r.do("audit", o.txn, o.key, func() (err error) {
		rep, err = r.e.pool.Audit(ctx, o.txn, auditLeaves)
		return err
	})
	if err != nil {
		return err
	}
	if rep.TxnID != o.txn || rep.Challenge == nil || len(rep.Challenge.Indices) != auditLeaves ||
		rep.Response == nil || !rep.Root.Equal(o.root) {
		return violation("%s: audit report does not answer a %d-leaf challenge against the NRR root", o.txn, auditLeaves)
	}
	return nil
}

// Dispute-mix cases, drawn with equal weight.
const (
	caseAbort = iota
	caseResolve
	caseTamper
	caseFalseClaim
	disputeCases
)

func disputeSession(ctx context.Context, r *sessRun) error {
	c := r.wk.rng.Intn(disputeCases)
	if c == caseAbort {
		txn := r.wk.txn("ab")
		var res *core.AbortResult
		err := r.do("abort", txn, "", func() (err error) {
			res, err = r.e.pool.Abort(ctx, txn, "client cancels before upload")
			return err
		})
		if err != nil {
			return err
		}
		if !res.Accepted || res.Receipt == nil || res.Receipt.Header.Kind != evidence.KindAbortAccept ||
			res.Receipt.Header.TxnID != txn {
			return violation("%s: abort not accepted with a provider receipt", txn)
		}
		return nil
	}

	txn := r.wk.txn("up")
	key := "dispute/" + txn
	p := r.e.inputs[r.wk.rng.Intn(len(r.e.inputs))]
	up, err := r.upload(ctx, txn, key, p)
	if err != nil {
		return err
	}
	switch c {
	case caseResolve:
		var res *core.ResolveResult
		err := r.do("resolve", txn, key, func() (err error) {
			res, err = r.e.pool.Resolve(ctx, txn, "client asks the TTP to confirm the receipt")
			return err
		})
		if err != nil {
			return err
		}
		ev := res.PeerEvidence
		if ev == nil || ev.Header.Kind != evidence.KindNRR || ev.Header.TxnID != txn ||
			!ev.Header.DataMD5.Equal(up.NRR.Header.DataMD5) || !ev.Header.DataSHA256.Equal(up.NRR.Header.DataSHA256) {
			return violation("%s: resolve did not relay the provider's NRR", txn)
		}
		if err := ev.VerifyWith(r.e.provKey); err != nil {
			return violation("%s: relayed NRR does not verify: %v", txn, err)
		}
		return nil
	case caseTamper:
		pos := r.wk.rng.Intn(len(p.data))
		err := r.e.store.Tamper(key, true, func(b []byte) []byte {
			b[pos] ^= 0xA5
			return b
		})
		if err != nil {
			return err
		}
		dl := r.wk.txn("dl")
		if _, err := r.download(ctx, dl, key, txn); !errors.Is(err, core.ErrIntegrity) {
			return violation("%s: tampered object served without ErrIntegrity (got %v)", dl, err)
		}
		return r.decide(txn, key, up, arbitrator.VerdictProviderFault)
	default: // caseFalseClaim
		dl := r.wk.txn("dl")
		res, err := r.download(ctx, dl, key, txn)
		if err != nil {
			return err
		}
		if err := checkDownload(res, dl, txn, p); err != nil {
			return err
		}
		return r.decide(txn, key, up, arbitrator.VerdictClaimFalse)
	}
}

// decide has the arbitrator rule on the client's claim against what
// the provider produces now, and checks the verdict.
func (r *sessRun) decide(txn, key string, up *core.UploadResult, want arbitrator.Verdict) error {
	var dec *arbitrator.Decision
	err := r.do("decide", txn, key, func() error {
		obj, err := r.e.store.Get(key)
		if err != nil {
			return err
		}
		dec = r.e.arb.Decide(&arbitrator.Case{
			TxnID:        txn,
			ObjectKey:    key,
			ClaimantID:   deploy.ClientName,
			RespondentID: deploy.ProviderName,
			ClaimantNRO:  up.NRO,
			ClaimantNRR:  up.NRR,
			ProducedData: obj.Data,
		})
		return nil
	})
	if err != nil {
		return err
	}
	if dec.Verdict != want {
		return violation("%s: arbitrator ruled %s, want %s", txn, dec.Verdict, want)
	}
	return nil
}

// recoverAndCheck is ingest-r3's restart: with the deployment closed,
// it reopens the journals, follower journals and archives, recovers
// the engine, and returns the time until the node serves. Every NRR
// acked during the run must then be readable through EvidenceByKind,
// from the hot journal or the cold archive.
func recoverAndCheck(ctx context.Context, e *env) (float64, error) {
	t := startTimer()
	re, err := openEnv(e.spec, e.dir, e.inputs, newTracer(false), e.store.Store)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer re.close()
	if _, err := re.d.Engine.Recover(ctx); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	secs := t.elapsed().Seconds()
	for _, nrr := range e.acked {
		h := nrr.Header
		got, err := re.d.Engine.EvidenceByKind(h.TxnID, evidence.RoleOwn, evidence.KindNRR)
		if err != nil {
			return secs, violation("%s: acked NRR lost across restart: %v", h.TxnID, err)
		}
		if !bytes.Equal(got.HeaderSig, nrr.HeaderSig) || !got.Header.DataSHA256.Equal(h.DataSHA256) {
			return secs, violation("%s: recovered NRR differs from the acked one", h.TxnID)
		}
	}
	return secs, nil
}

func removeDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "tpnrbench: removing", dir+":", err)
	}
}
