package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quick runs the benchmark in -quick mode with extra flags and returns its
// report and standard output.
func quick(t *testing.T, extra ...string) (report, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	args := append([]string{"-quick", "-json", path, "-out", dir}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d:\n%s", args, code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep, stdout.String()
}

// TestQuickAllWorkloads is the self-test of the benchmark: all four
// workloads run, nothing fails, every metric is reported, and the
// deterministic counters repeat across passes (the run itself checks that),
// across the traced pass and across invocations — and move with the seed.
func TestQuickAllWorkloads(t *testing.T) {
	// One untraced pass each; the traced pass is the first run's second pass,
	// and the run itself fails if its counters differ from the first's.
	first, _ := quick(t, "-traced", "-passes", "1", "-seed", "1")
	again, _ := quick(t, "-passes", "1", "-seed", "1")
	other, _ := quick(t, "-passes", "1", "-seed", "2")
	if len(first.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(first.Workloads), len(workloads))
	}
	for i, wr := range first.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", wr.Name, wr.Attempted, wr.Failed)
		}
		for _, d := range endToEndMetrics {
			if v := wr.EndToEnd[d.name]; v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %s", wr.Name, d.name, v.Value, v.Unit, d.unit)
			}
		}
		for _, d := range perLayerMetrics {
			if _, ok := wr.PerLayer[d.name]; !ok {
				t.Errorf("%s: layer metric %s missing", wr.Name, d.name)
			}
		}
		if wr.PerLayer["orb.rpcs_per_app"].Value <= 0 || wr.PerLayer["orb.wire_us_per_rpc"].Value <= 0 {
			t.Errorf("%s: traced pass recorded no RPCs: %+v", wr.Name, wr.PerLayer)
		}
		if _, err := os.Stat(wr.Trace); err != nil {
			t.Errorf("%s: trace file: %v", wr.Name, err)
		}
		if got := again.Workloads[i].Counters; got != wr.Counters {
			t.Errorf("%s: same seed, different counters:\n%+v\n%+v", wr.Name, wr.Counters, got)
		}
		if got := other.Workloads[i].Counters; got.InputsHash == wr.Counters.InputsHash {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", wr.Name)
		}
	}
	tcp := first.Workloads[0]
	if tcp.LayerSumFrac < 0.9 || tcp.LayerSumFrac > 1.1 {
		t.Errorf("%s: layer self times sum to %.3f of the lifecycle time", tcp.Name, tcp.LayerSumFrac)
	}
}

// TestDriverLine checks the contract of the driver's form of the command.
func TestDriverLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEndMetrics, "1": perLayerMetrics} {
		_, out := quick(t, "--workload", "sched_batch_10k", "--seed", "7", "--seconds", "1", "--trace", trace)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var line struct {
			Correct   *bool                  `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("trace %s: result %s", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := line.Metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, d.name, v, d.unit)
			}
		}
	}
}

// TestManifestMatches keeps BENCHMARK.json and the program in step.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, program has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("manifest workload %d is %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("manifest lists %d %s metrics, program has %d", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: manifest %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEndMetrics)
	check("per_layer", manifest.PerLayer, perLayerMetrics)
}
