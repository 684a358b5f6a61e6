package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// snapshot is the program's exported state at one edge of the timed
// phase. Taking it runs a full GC, so it stays outside every timer.
type snapshot struct {
	heap, totalAlloc uint64
	gcCPU, cpu       float64
	def, prov, pool  obs.Snapshot
	syncs            uint64
	ttpMsgs          int64
	lag              uint64
	// The tracer's transaction-less aggregates.
	replN, replNs, ckptN, ckptNs int64
}

func sample(e *env) snapshot {
	var lag uint64
	for _, g := range e.d.ReplicaGroups {
		lag += g.Lag()
	}
	gcNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(cpu)
	s := snapshot{
		heap:       ms.HeapAlloc,
		totalAlloc: ms.TotalAlloc,
		gcCPU:      cpu[0].Value.Float64(),
		cpu:        cpu[1].Value.Float64(),
		def:        obs.Default().Snapshot(),
		prov:       e.provReg.Snapshot(),
		pool:       e.poolReg.Snapshot(),
		ttpMsgs:    e.d.TTPCounters.Get(metrics.MsgsSent) + e.d.TTPCounters.Get(metrics.MsgsRecv),
		lag:        lag,
		replN:      e.tr.repl.n.Load(),
		replNs:     e.tr.repl.ns.Load(),
		ckptN:      e.tr.ckpt.n.Load(),
		ckptNs:     e.tr.ckpt.ns.Load(),
	}
	for _, w := range e.journals {
		s.syncs += w.Syncs()
	}
	for _, w := range e.followers {
		s.syncs += w.Syncs()
	}
	return s
}

func counterDelta(a, b obs.Snapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

// histMeanMs is the mean of a nanosecond histogram's new observations.
func histMeanMs(a, b obs.Snapshot, name string) float64 {
	n := b.Histograms[name].Count - a.Histograms[name].Count
	sum := b.Histograms[name].Sum - a.Histograms[name].Sum
	return divOrZero(float64(sum)/1e6, float64(n))
}

// matchingDeltas lists the deltas of every counter whose name has the
// given prefix and suffix (per-shard and per-group series).
func matchingDeltas(a, b obs.Snapshot, prefix, suffix string) []float64 {
	var out []float64
	for name, v := range b.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			out = append(out, float64(v-a.Counters[name]))
		}
	}
	return out
}

// named is one reported metric. Gated end-to-end metrics go into the
// JSON line; the others are printed only: the per-operation ones apply
// to some workloads only, and the wall-clock ones swing with the host's
// shared disk on ingest-r3 by more than any bound BENCHMARK.json may
// set. Every per-layer metric goes into the JSON line; one that does
// not apply (skip) reads 0 and is not printed.
type named struct {
	name, unit string
	value      float64
	note       string
	gated      bool
	skip       bool
}

// Operations whose p50 is reported where they occur.
var opKinds = []string{"upload", "download", "audit", "abort", "resolve", "decide"}

func endToEnd(r *report, seconds, setupS, cpuS, heapKiB, recoverS float64, journal bool) []named {
	ok := float64(len(r.sessionMs))
	var rate, p50, p99 []float64
	for w, v := range r.byWindow {
		secs := seconds / windows
		if w == windows-1 {
			// The last window also holds the sessions in flight at the deadline.
			secs = r.elapsed - seconds*(windows-1)/windows
		}
		rate = append(rate, float64(len(v))/secs)
		p50 = append(p50, quantile(v, 0.5))
		p99 = append(p99, quantile(v, 0.99))
	}
	nNote := fmt.Sprintf("median of %d windows, n=%d", windows, len(r.sessionMs))
	out := []named{
		{name: "setup_s", unit: "s", value: setupS, note: fmt.Sprintf("median of %d set-ups", setupRuns), gated: true},
		{name: "sessions_per_s", unit: "1/s", value: median(rate), note: nNote},
		{name: "session_p50_ms", unit: "ms", value: median(p50), note: nNote},
		{name: "session_p99_ms", unit: "ms", value: median(p99), note: nNote},
		{name: "failed_frac", unit: "frac", value: divOrZero(float64(r.failed), float64(r.attempted)),
			note: fmt.Sprintf("%d of %d", r.failed, r.attempted)},
		{name: "cpu_ms_per_session", unit: "ms", value: divOrZero(cpuS*1000, ok), note: "process user+system CPU", gated: true},
		{name: "heap_kib_per_session", unit: "KiB", value: divOrZero(heapKiB, ok), note: "live heap growth after GC", gated: true},
	}
	for _, k := range opKinds {
		if v := r.opMs[k]; len(v) > 0 {
			out = append(out, named{name: k + "_p50_ms", unit: "ms", value: quantile(v, 0.5), note: fmt.Sprintf("n=%d", len(v))})
		}
	}
	if journal {
		out = append(out, named{name: "recover_s", unit: "s", value: recoverS, note: "reopen + Engine.Recover"})
	}
	return out
}

// perLayer derives the per-layer metrics: span metrics from the traced
// sessions, counter metrics from the deltas of the program's own
// counters over the whole timed phase. It also checks the paper's step
// counts: every protocol operation a traced session ran without a pool
// retry crossed the client's transport in exactly two frames.
func perLayer(e *env, r *report, a, b snapshot) ([]named, error) {
	tr := e.tr
	sessions := float64(r.attempted)
	traced := float64(len(tr.done))

	var frames, bytes, getBytes, puts, gets, sends, waits int
	var sendMs, waitMs, putMs, getMs, selfMs float64
	var bad []string
	checked := 0
	for _, s := range tr.done {
		transportMs := 0.0
		for _, sp := range s.spans {
			d := ms(sp.dur)
			switch sp.layer {
			case spanSend:
				sends++
				sendMs += d
				transportMs += d
				bytes += sp.bytes
			case spanRecvWait:
				waits++
				waitMs += d
				transportMs += d
				bytes += sp.bytes
			case spanPut:
				puts++
				putMs += d
			case spanGet:
				gets++
				getMs += d
				getBytes += sp.bytes
			}
		}
		selfMs += ms(s.dur) - transportMs
		for _, o := range s.ops {
			frames += o.frames
			if o.kind == "decide" || o.retried {
				continue
			}
			checked++
			if o.frames != 2 && len(bad) < 5 {
				bad = append(bad, fmt.Sprintf("%s %s: %d frames", s.id, o.kind, o.frames))
			}
		}
	}
	var stepErr error
	if len(bad) > 0 {
		stepErr = fmt.Errorf("operations not in 2 steps: %s", strings.Join(bad, "; "))
	} else if checked == 0 {
		stepErr = fmt.Errorf("no traced operation to count steps on")
	}

	def := func(name string) float64 { return counterDelta(a.def, b.def, name) }
	hits, misses := counterDelta(a.pool, b.pool, "pool_idle_hits_total"), counterDelta(a.pool, b.pool, "pool_idle_misses_total")
	shardMsgs := matchingDeltas(a.def, b.def, "shard_msgs_total{", "")
	maxShard, sumShard := 0.0, 0.0
	for _, v := range shardMsgs {
		maxShard = math.Max(maxShard, v)
		sumShard += v
	}
	appends := def("wal_appends_total")
	fsyncs := float64(b.syncs - a.syncs)
	vHits, vMisses := def("verify_cache_hits_total"), def("verify_cache_misses_total")
	replN, replMs := float64(b.replN-a.replN), float64(b.replNs-a.replNs)/1e6
	ckptN, ckptMs := float64(b.ckptN-a.ckptN), float64(b.ckptNs-a.ckptNs)/1e6
	timeouts := 0.0
	for _, v := range matchingDeltas(a.def, b.def, "replica_shard", "_quorum_timeouts_total") {
		timeouts += v
	}
	resolves := float64(len(r.opMs["resolve"]))
	audits := len(r.opMs["audit"]) > 0
	cpu := b.cpu - a.cpu

	out := []named{
		{name: "core.client_self_ms", unit: "ms", value: divOrZero(selfMs, traced), note: "session time minus client transport spans"},
		{name: "core.pool_idle_hit_ratio", unit: "ratio", value: divOrZero(hits, hits+misses)},
		{name: "core.pool_retries_per_session", unit: "count", value: counterDelta(a.pool, b.pool, "pool_retries_total") / sessions},
		{name: "transport.frames_per_session", unit: "count", value: divOrZero(float64(frames), traced)},
		{name: "transport.bytes_per_session", unit: "B", value: divOrZero(float64(bytes), traced)},
		{name: "transport.send_ms", unit: "ms", value: divOrZero(sendMs, float64(sends)), note: "per frame sent"},
		{name: "transport.recv_wait_ms", unit: "ms", value: divOrZero(waitMs, float64(waits)), note: "per reply"},
		{name: "server.handle_ms", unit: "ms", value: histMeanMs(a.prov, b.prov, "server_handle_latency_ns"), note: "per provider message"},
		{name: "server.msgs_per_session", unit: "count", value: counterDelta(a.prov, b.prov, "server_msgs_total") / sessions},
		{name: "server.errors_per_session", unit: "count", value: counterDelta(a.prov, b.prov, "server_handler_errors_total") / sessions},
		{name: "server.shed_per_session", unit: "count", value: counterDelta(a.prov, b.prov, "server_shed_total") / sessions},
		{name: "shard.msg_imbalance", unit: "ratio", value: divOrZero(maxShard, sumShard/float64(len(shardMsgs))), note: "busiest shard over mean"},
		{name: "storage.put_ms", unit: "ms", value: divOrZero(putMs, float64(puts))},
		{name: "storage.get_ms", unit: "ms", value: divOrZero(getMs, float64(gets))},
		{name: "storage.puts_per_session", unit: "count", value: divOrZero(float64(puts), traced)},
		{name: "storage.get_bytes_per_session", unit: "B", value: divOrZero(float64(getBytes), traced)},
		{name: "wal.appends_per_session", unit: "count", value: appends / sessions, note: "leader and followers"},
		{name: "wal.fsyncs_per_session", unit: "count", value: fsyncs / sessions, note: "leader and followers"},
		{name: "wal.group_batch_mean", unit: "count", value: divOrZero(appends, fsyncs), note: "appends per fsync"},
		{name: "wal.checkpoint_ms", unit: "ms", value: divOrZero(ckptMs, ckptN), note: fmt.Sprintf("n=%.0f", ckptN)},
		{name: "replica.quorum_wait_ms_per_session", unit: "ms", value: replMs / sessions},
		{name: "replica.quorum_wait_ms_per_append", unit: "ms", value: divOrZero(replMs, replN)},
		{name: "replica.appends_per_session", unit: "count", value: replN / sessions},
		{name: "replica.lag_records_end", unit: "count", value: float64(b.lag)},
		{name: "replica.quorum_timeouts", unit: "count", value: timeouts},
		{name: "evidence.verify_cache_hit_ratio", unit: "ratio", value: divOrZero(vHits, vHits+vMisses)},
		{name: "evidence.verify_cache_evictions_per_session", unit: "count", value: def("verify_cache_evictions_total") / sessions},
		{name: "audit.response_ms", unit: "ms", value: histMeanMs(a.def, b.def, "audit_response_latency_ns"), skip: !audits},
		{name: "audit.challenges_per_session", unit: "count", value: def(obs.Labeled("audit_challenges_total", "party", "provider")) / sessions},
		{name: "ttp.msgs_per_resolve", unit: "count", value: divOrZero(float64(b.ttpMsgs-a.ttpMsgs), resolves), skip: resolves == 0},
		{name: "archive.appends_per_session", unit: "count", value: def("archive_appends_total") / sessions},
		{name: "go.alloc_kib_per_session", unit: "KiB", value: float64(b.totalAlloc-a.totalAlloc) / 1024 / sessions},
		{name: "go.gc_cpu_fraction", unit: "frac", value: divOrZero(b.gcCPU-a.gcCPU, cpu)},
		{name: "trace.overhead_frac", unit: "frac", value: divOrZero(median(r.tracedMs), median(r.untracedMs)) - 1,
			note: fmt.Sprintf("traced p50 over untraced p50, n=%d/%d", len(r.tracedMs), len(r.untracedMs))},
	}
	return out, stepErr
}
