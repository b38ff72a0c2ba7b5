package main

import (
	"fmt"
	"io"
	"time"

	"servdisc/internal/core"
)

// runStats accumulates one workload run over all its timed iterations.
// The end-to-end metrics come from the calls the benchmark makes and the
// times it observes; the per-layer metrics add the layers' own histograms.
type runStats struct {
	iterations int

	// End-to-end inputs.
	setup      []float64 // seconds per set-up
	ingestRate []float64 // packets per second per timed phase
	converge   []float64 // seconds per convergence
	heap       []float64 // MB per timed phase
	visLocal   windows
	visGlobal  windows
	local      []*loadgen
	global     []*loadgen

	// Per-layer inputs.
	packets, records, decodeFailed uint64
	readT, decodeT, handleT        time.Duration
	seen, matched                  uint64
	dispatch, apply, merge         histTotal
	encode, decode, aggApply       histTotal
	flush, report, snap, ckpt      durations
	ckptBytes                      []float64
	snapshots                      int
	services, scanners             int
	upgrades, expired              int
	frames, wireBytes              uint64
	bootstrap                      []float64
	pubDropped, disconnects        uint64
	resumeHits                     uint64
	events, eventsDropped          uint64
	rt                             runtimeTotal
}

// windows holds latency samples split by timed phase: border-replay has
// one per iteration, inventory-churn one for its whole run. A percentile
// is the median of the windows' percentiles, so one iteration disturbed
// by the host moves the figure less than pooling would.
type windows []durations

// minWindow is the fewest samples a window needs to count: enough that
// its p90 has ten samples beyond it.
const minWindow = 100

func (w *windows) add(i int, d time.Duration) {
	for len(*w) <= i {
		*w = append(*w, nil)
	}
	(*w)[i] = append((*w)[i], d)
}

func (w windows) n() int {
	n := 0
	for _, d := range w {
		n += len(d)
	}
	return n
}

func (w windows) pct(p float64) time.Duration {
	var xs []float64
	var all durations
	for _, d := range w {
		all = append(all, d...)
		if len(d) >= minWindow {
			xs = append(xs, float64(d.pct(p)))
		}
	}
	if len(xs) == 0 {
		return all.pct(p)
	}
	return time.Duration(median(xs))
}

// requestWindows gives each reader's due-time latencies a window; a
// reader runs for exactly one timed phase.
func requestWindows(gens []*loadgen) windows {
	var w windows
	for _, g := range gens {
		w = append(w, g.lat)
	}
	return w
}

// metric is one printed figure with its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func perOp(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// readerStats pools the readers' service times, lateness and point
// lookups.
func readerStats(gens []*loadgen) (svc, late durations, points, hits uint64) {
	for _, g := range gens {
		svc = append(svc, g.svc...)
		late = append(late, g.late...)
		points += g.points
		hits += g.hits
	}
	return
}

// endToEnd lists the metrics a user of the system sees.
func (st *runStats) endToEnd() []metric {
	ql := requestWindows(st.local)
	qg := requestWindows(st.global)
	return []metric{
		{"setup_s", median(st.setup), "s", len(st.setup)},
		{"ingest_pkts_per_s", median(st.ingestRate), "pkts/s", len(st.ingestRate)},
		{"visible_local_p50_ms", ms(st.visLocal.pct(0.5)), "ms", st.visLocal.n()},
		{"visible_local_p90_ms", ms(st.visLocal.pct(0.9)), "ms", st.visLocal.n()},
		{"visible_global_p50_ms", ms(st.visGlobal.pct(0.5)), "ms", st.visGlobal.n()},
		{"visible_global_p90_ms", ms(st.visGlobal.pct(0.9)), "ms", st.visGlobal.n()},
		{"query_local_p50_us", us(ql.pct(0.5)), "us", ql.n()},
		{"query_local_p90_us", us(ql.pct(0.9)), "us", ql.n()},
		{"query_global_p50_us", us(qg.pct(0.5)), "us", qg.n()},
		{"query_global_p90_us", us(qg.pct(0.9)), "us", qg.n()},
		{"converge_s", median(st.converge), "s", len(st.converge)},
		{"heap_live_mb", median(st.heap), "MB", len(st.heap)},
	}
}

// perLayer lists the single-layer metrics, named by the repository module
// they measure.
func (st *runStats) perLayer() []metric {
	lsvc, llate, lpoints, lhits := readerStats(st.local)
	gsvc, glate, _, _ := readerStats(st.global)
	late := append(llate, glate...)
	it := max(st.iterations, 1)
	snaps := uint64(st.snapshots)
	monitor := st.handleT - st.dispatch.sum
	return []metric{
		{"trace.read_ns_per_rec", perOp(st.readT, st.records), "ns", int(st.records)},
		{"packet.decode_ns_per_pkt", perOp(st.decodeT, st.records), "ns", int(st.records)},
		{"packet.decode_failed", float64(st.decodeFailed), "count", int(st.records)},
		{"capture.monitor_ns_per_pkt", perOp(monitor, st.packets), "ns", int(st.packets)},
		{"capture.filter_pass_ratio", ratio(st.matched, st.seen), "ratio", int(st.seen)},
		{"core.dispatch_ns_per_pkt", perOp(st.dispatch.sum, st.packets), "ns", int(st.dispatch.n)},
		{"core.apply_ns_per_pkt", perOp(st.apply.sum, st.packets), "ns", int(st.apply.n)},
		{"core.flush_ms", ms(st.flush.pct(0.5)), "ms", len(st.flush)},
		{"core.report_ms_p50", ms(st.report.pct(0.5)), "ms", len(st.report)},
		{"core.snapshot_ms_p50", ms(st.snap.pct(0.5)), "ms", len(st.snap)},
		{"core.snapshot_ms_p90", ms(st.snap.pct(0.9)), "ms", len(st.snap)},
		{"core.merge_ms_per_snapshot", perOp(st.merge.sum, snaps) / 1e6, "ms", int(st.merge.n)},
		{"core.snapshots", float64(st.snapshots) / float64(it), "count", st.snapshots},
		{"core.services", float64(st.services), "count", 1},
		{"core.scanners", float64(st.scanners), "count", 1},
		{"core.upgrades", float64(st.upgrades), "count", 1},
		{"core.expired", float64(st.expired), "count", 1},
		{"query.index_ms_per_snapshot", perOp(st.snap.sum()-st.merge.sum, snaps) / 1e6, "ms", st.snapshots},
		{"query.read_us_p50", us(lsvc.pct(0.5)), "us", len(lsvc)},
		{"query.read_us_p90", us(lsvc.pct(0.9)), "us", len(lsvc)},
		{"query.hit_ratio", ratio(lhits, lpoints), "ratio", int(lpoints)},
		{"federate.encode_us_per_frame", perOp(st.encode.sum, st.encode.n) / 1e3, "us", int(st.encode.n)},
		{"federate.frames", float64(st.frames) / float64(it), "count", it},
		{"federate.wire_bytes", float64(st.wireBytes) / float64(it), "bytes", it},
		{"federate.bytes_per_frame", ratio(st.wireBytes, st.frames), "bytes", int(st.frames)},
		{"federate.decode_us_per_frame", perOp(st.decode.sum, st.decode.n) / 1e3, "us", int(st.decode.n)},
		{"federate.apply_us_per_frame", perOp(st.aggApply.sum, st.aggApply.n) / 1e3, "us", int(st.aggApply.n)},
		{"federate.bootstrap_s", median(st.bootstrap), "s", len(st.bootstrap)},
		{"federate.query_us_p50", us(gsvc.pct(0.5)), "us", len(gsvc)},
		{"federate.query_us_p90", us(gsvc.pct(0.9)), "us", len(gsvc)},
		{"federate.pub_dropped", float64(st.pubDropped), "count", it},
		{"federate.disconnects", float64(st.disconnects), "count", it},
		{"federate.resume_hits", float64(st.resumeHits), "count", it},
		{"checkpoint.write_ms_p50", ms(st.ckpt.pct(0.5)), "ms", len(st.ckpt)},
		{"checkpoint.bytes_per_delta", median(st.ckptBytes), "bytes", len(st.ckptBytes)},
		{"pipeline.events", float64(st.events), "count", it},
		{"pipeline.events_dropped", float64(st.eventsDropped), "count", it},
		{"loadgen.late_us_p90", us(late.pct(0.9)), "us", len(late)},
		{"runtime.allocs_per_op", ratio(st.rt.mallocs, st.packets), "allocs", int(st.packets)},
		{"runtime.gc_cpu_fraction", st.rt.gcFraction(), "ratio", it},
	}
}

// addFeed books one iteration's feed counters, read just before teardown.
func (st *runStats) addFeed(before, after feedCounts, events uint64, l *ledger) {
	frames := after.frames - before.frames
	st.frames += frames
	st.wireBytes += uint64(after.bytes - before.bytes)
	st.pubDropped += after.pubDropped - before.pubDropped + after.evictions - before.evictions
	st.disconnects += after.disconnects - before.disconnects
	st.resumeHits += after.resumeHits - before.resumeHits
	st.eventsDropped += after.localDropped - before.localDropped + after.globalDropped - before.globalDropped
	l.add("federate.frames", frames, after.pubDropped-before.pubDropped)
	l.add("federate.evictions", frames, after.evictions-before.evictions)
	l.add("federate.feed", 1, after.disconnects-before.disconnects)
	l.add("pipeline.events", events, after.localDropped-before.localDropped+after.globalDropped-before.globalDropped)
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "## %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "%-32s %16.4f %-7s n=%d\n", m.name, m.value, m.unit, m.n)
	}
}

// discovered keeps the service discovery events.
func discovered(evs []localEvent) []localEvent {
	var out []localEvent
	for _, e := range evs {
		if e.kind == core.EventServiceDiscovered {
			out = append(out, e)
		}
	}
	return out
}
