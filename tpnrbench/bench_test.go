package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks
// the program against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloads runs every workload briefly, untraced and traced, with
// every check on, and holds the JSON line to BENCHMARK.json: the
// untraced run reports exactly the end-to-end metrics, the traced run
// exactly the per-layer metrics, each with the declared unit.
func TestWorkloads(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(specs))
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out strings.Builder
				// A traced run needs a second 0.5 s block to trace anything.
				res, err := run(context.Background(), options{
					workload: w.Name, seed: 7, seconds: 1.2, trace: traced, workDir: t.TempDir(),
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				var got, names []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				for _, m := range want {
					names = append(names, m.Name)
					if res.Metrics[m.Name].Unit != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, res.Metrics[m.Name].Unit, m.Unit)
					}
				}
				sort.Strings(got)
				sort.Strings(names)
				if strings.Join(got, ",") != strings.Join(names, ",") {
					t.Fatalf("metrics %v, BENCHMARK.json lists %v", got, names)
				}
				if traced {
					checkLayers(t, w.Name, res.Metrics)
				}
			})
		}
	}
}

// checkLayers: the journal and its replication work on ingest-r3 only,
// and the TTP relays only on dispute-mix.
func checkLayers(t *testing.T, workload string, m map[string]metric) {
	ingest := workload == "ingest-r3"
	for _, name := range []string{
		"wal.appends_per_session", "wal.fsyncs_per_session", "wal.group_batch_mean",
		"replica.quorum_wait_ms_per_session", "replica.appends_per_session",
	} {
		if (m[name].Value != 0) != ingest {
			t.Errorf("%s = %v on %s", name, m[name].Value, workload)
		}
	}
	if (m["ttp.msgs_per_resolve"].Value != 0) != (workload == "dispute-mix") {
		t.Errorf("ttp.msgs_per_resolve = %v on %s", m["ttp.msgs_per_resolve"].Value, workload)
	}
	if m["transport.frames_per_session"].Value < 2 {
		t.Errorf("transport.frames_per_session = %v", m["transport.frames_per_session"].Value)
	}
}
