// Command perfbench is the end-to-end discovery benchmark: it drives the
// whole path from pcap bytes through decode, the capture monitor, the
// sharded hybrid engine with live snapshots and the query index, the
// federation publisher, the wire and a cold aggregator with its index,
// with open-loop queries on both sides, and checks the results against
// sequential references.
//
//	go run . --workload border-replay --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload traced, once at the default shard count and once with one
// shard, and prints the per-layer metrics of both. The last line of
// standard output is always one JSON object with the figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// opts are one workload run's settings.
type opts struct {
	seed    uint64
	seconds float64
	shards  int     // engine shards; 0 picks the facade's default
	tr      *tracer // nil for untraced runs
	work    string  // scratch directory for checkpoints and span dumps
}

var workloads = map[string]func(opts) (*runStats, *ledger, error){
	"border-replay":   runBorder,
	"inventory-churn": runChurn,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: border-replay or inventory-churn")
	seed := flag.Uint64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 10, "timed seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	work := flag.String("work", ".bench_build", "scratch directory for checkpoints and span dumps")
	flag.Parse()
	run := workloads[*workload]
	if run == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *workload)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := opts{seed: *seed, seconds: *seconds, work: *work}
	res, err := measure(run, *workload, o, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// singleShard lists the per-layer metrics the traced run repeats with one
// engine shard, beside the default shard count's.
var singleShard = []string{
	"capture.monitor_ns_per_pkt", "core.dispatch_ns_per_pkt", "core.apply_ns_per_pkt",
	"core.flush_ms", "core.snapshot_ms_p50", "core.merge_ms_per_snapshot",
}

func measure(run func(opts) (*runStats, *ledger, error), name string, o opts, traced bool) (*result, error) {
	res := &result{Metrics: map[string]jsonMetric{}}
	if !traced {
		st, l, err := run(o)
		if err != nil {
			return nil, err
		}
		e2e := st.endToEnd()
		printMetrics(os.Stdout, fmt.Sprintf("%s seed=%d end-to-end", name, o.seed), e2e)
		for _, m := range e2e {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
		res.Attempted, res.Failed = report(l)
		res.Correct = res.Failed == 0
		return res, nil
	}
	gomaxprocs := runtime.GOMAXPROCS(0)
	var layers [2][]metric
	for i, shards := range []int{0, 1} {
		o.shards = shards
		o.tr = newTracer()
		st, l, err := run(o)
		if err != nil {
			return nil, err
		}
		n := shards
		if n == 0 {
			n = min(gomaxprocs, 8) // the facade's default shard count
		}
		title := fmt.Sprintf("%s seed=%d GOMAXPROCS=%d shards=%d", name, o.seed, gomaxprocs, n)
		printMetrics(os.Stdout, title+" traced end-to-end", st.endToEnd())
		layers[i] = st.perLayer()
		printMetrics(os.Stdout, title+" per-layer", layers[i])
		printSpans(title, o.tr)
		path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d-shards%d.json", name, o.seed, n))
		if err := o.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
		a, f := report(l)
		res.Attempted += a
		res.Failed += f
		if i == 0 {
			res.Metrics["run.gomaxprocs"] = jsonMetric{float64(gomaxprocs), "count"}
			res.Metrics["run.shards"] = jsonMetric{float64(n), "count"}
		}
	}
	for _, m := range layers[0] {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	for _, m := range layers[1] {
		for _, name := range singleShard {
			if m.name == name {
				res.Metrics["shards1."+name] = jsonMetric{m.value, m.unit}
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// report prints the ledger and returns its totals.
func report(l *ledger) (attempted, failed uint64) {
	attempted, failed = l.totals()
	fmt.Printf("## operations: attempted=%d failed=%d\n", attempted, failed)
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, f := range l.fail {
		if f > 0 {
			fmt.Printf("failed %-28s %d of %d\n", k, f, l.att[k])
		}
	}
	for _, e := range l.errors {
		fmt.Println("failure:", e)
	}
	return attempted, failed
}

// printSpans prints the traced run's self time per span name.
func printSpans(title string, t *tracer) {
	fmt.Printf("## %s spans (self time = span minus child spans)\n", title)
	names := make([]string, 0, len(t.stats))
	for n := range t.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := t.stats[n]
		fmt.Printf("%-24s n=%-8d total=%12.3fms self=%12.3fms\n", n, s.N, ms(s.Total), ms(s.Self))
	}
}
