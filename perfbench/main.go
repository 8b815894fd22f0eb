// Command perfbench is the CoCa system benchmark. It assembles a workload
// from the program's own layers — core clients and servers on the engine
// runner, the wire protocol over TCP, federation sync and anti-entropy —
// drives it as a closed loop for a fixed time, checks the outputs against
// the program's own drivers, and prints the metrics, with the last line of
// standard output one JSON object.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload ref-stream --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans and
// reports the per-layer metrics. WORKLOADS.md explains every workload and
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "seed of the clients' frame streams")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	rep, err := run(w, seed, seconds, trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if err := checkListed(rep.metrics, trace == 1); err != nil {
		return err
	}
	correct := true
	for _, c := range rep.checks {
		status := "ok"
		if c.err != nil {
			status, correct = "FAIL: "+c.err.Error(), false
		}
		fmt.Printf("check %-22s %s\n", c.name, status)
	}
	if rep.failed > 0 {
		correct = false
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, make(map[string]jsonMetric)}
	for _, m := range rep.metrics {
		fmt.Printf("%-40s %16.4f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%s: output checks failed", w.name)
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkListed requires the run to report exactly the metrics, with the
// units, that BENCHMARK.json in the working directory lists for its kind:
// end_to_end for untraced runs, per_layer for traced ones.
func checkListed(got []metric, traced bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("reading the metric list: %w", err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	list, kind := doc.EndToEnd, "end_to_end"
	if traced {
		list, kind = doc.PerLayer, "per_layer"
	}
	want := make(map[string]string, len(list))
	for _, e := range list {
		want[e.Name] = e.Unit
	}
	for _, m := range got {
		unit, ok := want[m.name]
		if !ok {
			return fmt.Errorf("metric %s is not in BENCHMARK.json %s", m.name, kind)
		}
		if unit != m.unit {
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", m.name, m.unit, unit)
		}
		delete(want, m.name)
	}
	for name := range want {
		return fmt.Errorf("BENCHMARK.json %s lists %s, which the run did not report", kind, name)
	}
	return nil
}
