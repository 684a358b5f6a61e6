// Command tpnrbench is the session-level benchmark of the TPNR
// reproduction. It drives whole TPNR sessions through the public API
// (deploy.New, core.SessionPool, arbitrator.Decide,
// ShardedEngine.Checkpoint/Recover) from one process that hosts the
// clients, the provider shards, the follower replicas and the TTP. It
// checks every protocol output and prints each metric by name and
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json; with -trace 1 they are the per-layer ones, measured
// in a separate traced run (see trace.go). The workloads, their
// configuration and every metric are described in README.md.
//
// Usage, from the repository root:
//
//	bash tpnrbench/run.sh --workload ingest-r3 --seed 1 --seconds 10 --trace 0
//	(cd tpnrbench && go test .)   # self-test: every workload, briefly
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/cryptoutil"
)

// setupRuns is how many times the untraced run sets up; setup_s is the
// median, and the last set-up serves the timed phase.
const setupRuns = 7

// windows splits the timed phase; the session rate and percentiles
// are the medians of their per-window values, so that a burst of host
// noise (a slow shared disk, a busy neighbour) shorter than half the
// run does not move them.
const windows = 12

// traceBlock alternates untraced and traced sessions within a traced
// run, so host drift cancels out of the tracing overhead.
const traceBlock = 500 * time.Millisecond

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds journals and archives; it is removed on exit.
	workDir string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest-r3, retrieve-audit or dispute-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&o.workDir, "dir", filepath.Join(".bench_build", "work"), "working directory for journals and archives")
	flag.Parse()
	o.trace = traceFlag == 1
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpnrbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpnrbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// result is the JSON last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sessResult is one timed session as the client saw it.
type sessResult struct {
	ms     float64
	ops    []opSample
	traced bool
	window int // the window the session ended in
	err    error
}

// run sets up, measures and checks one workload, writing the
// human-readable report to out.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	// RSA key generation takes a random time: warm the cached test keys
	// before any timer starts.
	for i := 0; i < 4; i++ {
		cryptoutil.InsecureTestKeyScheme(100+i, sp.scheme)
	}
	inputs := sp.payloads(newWorker(-1, o.seed, "").rng)
	root, err := filepath.Abs(filepath.Join(o.workDir, fmt.Sprintf("%s-%d", sp.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer removeDir(root)

	runs := setupRuns
	if o.trace {
		runs = 1
	}
	tr := newTracer(o.trace)
	var e *env
	var setupS []float64
	for i := 0; i < runs; i++ {
		if e != nil {
			e.stopCheckpointer()
			e.close()
		}
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		gcNow()
		t := startTimer()
		if e, err = setup(ctx, sp, dir, inputs, tr, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, t.elapsed().Seconds())
	}

	before := sample(e)
	cpu0 := cpuSeconds()
	t := startTimer()
	sessions := measure(ctx, e, o)
	elapsed := t.elapsed().Seconds()
	cpuS := cpuSeconds() - cpu0
	e.stopCheckpointer()
	after := sample(e)

	var recoverS float64
	checkErr := e.ckptErr
	e.close()
	if sp.journal && checkErr == nil {
		recoverS, checkErr = recoverAndCheck(ctx, e)
	}

	rep := summarize(sessions, elapsed)
	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "workload %s seed %d trace %v: %d sessions attempted, %d failed, %d output checks failed, %.2f s timed\n",
		sp.name, o.seed, o.trace, rep.attempted, rep.failed, rep.violations, elapsed)
	for _, err := range rep.errs {
		fmt.Fprintln(out, "  session error:", err)
	}
	if sp.journal {
		fmt.Fprintf(out, "  %d checkpoints, %d acked NRRs checked after recovery\n", e.ckpts, len(e.acked))
	}
	correct := rep.violations == 0 && checkErr == nil
	if checkErr != nil {
		fmt.Fprintln(out, "  check error:", checkErr)
	}

	if !o.trace {
		heapKiB := (float64(after.heap) - float64(before.heap)) / 1024
		ee := endToEnd(rep, o.seconds, median(setupS), cpuS, heapKiB, recoverS, sp.journal)
		for _, m := range ee {
			fmt.Fprintf(out, "  %-28s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
			if m.gated {
				res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
			}
		}
	} else {
		pl, stepErr := perLayer(e, rep, before, after)
		if stepErr != nil {
			correct = false
			fmt.Fprintln(out, "  step-count check:", stepErr)
		}
		for _, m := range pl {
			if !m.skip {
				fmt.Fprintf(out, "  %-40s %12.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
			}
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	res.Correct = correct
	return res, nil
}

// measure runs the closed loop: each client starts its next session
// only when the previous one has returned, until the time is up.
func measure(ctx context.Context, e *env, o options) [][]sessResult {
	out := make([][]sessResult, clients)
	start := time.Now()
	length := time.Duration(o.seconds * float64(time.Second))
	deadline := start.Add(length)
	_ = forEachClient(func(c int) error {
		wk := newWorker(c, o.seed, "r")
		for time.Now().Before(deadline) {
			r := &sessRun{e: e, wk: wk}
			traced := o.trace && (time.Since(start)/traceBlock)%2 == 1
			if traced {
				r.st = e.tr.begin(wk.txn("s"))
			}
			t := startTimer()
			err := e.spec.session(ctx, r)
			d := t.elapsed()
			if r.st != nil {
				e.tr.end(r.st, d)
			}
			w := min(int(time.Since(start)*windows/length), windows-1)
			out[c] = append(out[c], sessResult{ms: ms(d), ops: r.ops, traced: traced, window: w, err: err})
			wk.n++
		}
		return nil
	})
	return out
}

// report summarizes the timed sessions.
type report struct {
	attempted, failed, violations int
	errs                          []error
	// sessionMs, byWindow, tracedMs and untracedMs hold successful
	// sessions only.
	sessionMs, tracedMs, untracedMs []float64
	byWindow                        [windows][]float64
	opMs                            map[string][]float64
	elapsed                         float64
}

func summarize(sessions [][]sessResult, elapsed float64) *report {
	r := &report{opMs: map[string][]float64{}, elapsed: elapsed}
	for _, list := range sessions {
		for _, s := range list {
			r.attempted++
			if s.err != nil {
				r.failed++
				var ce *checkError
				if errors.As(s.err, &ce) {
					r.violations++
				}
				if len(r.errs) < 5 {
					r.errs = append(r.errs, s.err)
				}
				continue
			}
			r.sessionMs = append(r.sessionMs, s.ms)
			r.byWindow[s.window] = append(r.byWindow[s.window], s.ms)
			if s.traced {
				r.tracedMs = append(r.tracedMs, s.ms)
			} else {
				r.untracedMs = append(r.untracedMs, s.ms)
			}
			for _, op := range s.ops {
				r.opMs[op.kind] = append(r.opMs[op.kind], op.ms)
			}
		}
	}
	return r
}

type timer struct{ start time.Time }

func startTimer() timer                { return timer{start: time.Now()} }
func (t timer) elapsed() time.Duration { return time.Since(t.start) }
func (t timer) ms() float64            { return ms(t.elapsed()) }
func ms(d time.Duration) float64       { return float64(d) / float64(time.Millisecond) }
func median(v []float64) float64       { return quantile(v, 0.5) }

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gcNow collects twice so that objects freed by finalizers are gone.
func gcNow() { runtime.GC(); runtime.GC() }

func divOrZero(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
