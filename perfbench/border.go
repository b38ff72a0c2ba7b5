package main

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sort"
	"time"

	"servdisc"
	"servdisc/internal/capture"
	"servdisc/internal/core"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/trace"
)

// Border-replay sizing: the set-up replays one warm-up day of the default
// semester campus, the timed phase the following six days with hourly
// snapshots; sweeps run twice a day; light open-loop readers.
const (
	borderWarmDays  = 1
	borderDays      = 6
	borderQueryRate = 200 // requests/s per side
	borderSetups    = 4   // set-up-only samples before the timed phase
)

// call is one HandleBatch or AddReport call: its wall interval and, for a
// batch, the newest packet timestamp it carried.
type call struct {
	start, end time.Time
	lastTs     time.Time
	report     int // report index, -1 for a batch
}

// interval is a Snapshot call's wall interval.
type interval struct{ start, end time.Time }

// feedLog is what one replay records for the visibility computation.
type feedLog struct {
	calls []call
	snaps []interval
}

// replayHooks lets the timed replay snapshot and trace; the reference
// replay leaves them nil.
type replayHooks struct {
	tr       *tracer
	snapshot func() *core.Inventory
	st       *runStats
	log      *feedLog
}

// replay decodes the pcap bytes with trace.Reader and packet.DecodeIP,
// feeds DefaultBatchSize batches to HandleBatch, hands each sweep report
// to AddReport once the trace clock passes its finish time, and (with
// hooks) snapshots every hour of trace time. It returns the packets fed.
func replay(p *servdisc.Pipeline, in *segment, h replayHooks) (int, error) {
	r, err := trace.NewReader(bytes.NewReader(in.pcap))
	if err != nil {
		return 0, err
	}
	tr := h.tr
	const B = pipeline.DefaultBatchSize
	recs := make([]trace.Record, 0, B)
	batch := make([]packet.Packet, 0, B)
	nextSnap := in.start.Add(time.Hour)
	nextRep := 0
	fed := 0
	var clock time.Time
	for g := uint64(0); ; g++ {
		sb := tr.begin("batch", g)
		s := tr.begin("trace.read", g)
		t0 := time.Now()
		recs = recs[:0]
		var rerr error
		for len(recs) < B {
			rec, err := r.Next()
			if err != nil {
				rerr = err
				break
			}
			recs = append(recs, rec)
		}
		t1 := time.Now()
		tr.end(s)
		s = tr.begin("packet.decode", g)
		batch = batch[:0]
		for i := range recs {
			pk, err := packet.DecodeIP(recs[i].Data, recs[i].Time)
			if err != nil {
				if h.st != nil {
					h.st.decodeFailed++
				}
				continue
			}
			batch = append(batch, *pk)
		}
		t2 := time.Now()
		tr.end(s)
		if h.st != nil {
			h.st.records += uint64(len(recs))
			h.st.readT += t1.Sub(t0)
			h.st.decodeT += t2.Sub(t1)
		}
		if len(batch) > 0 {
			s = tr.begin("servdisc.HandleBatch", g)
			c := call{start: time.Now(), report: -1, lastTs: batch[len(batch)-1].Timestamp}
			p.HandleBatch(batch)
			c.end = time.Now()
			tr.end(s)
			fed += len(batch)
			clock = c.lastTs
			if h.log != nil {
				h.log.calls = append(h.log.calls, c)
				h.st.handleT += c.end.Sub(c.start)
			}
		}
		last := rerr != nil
		for nextRep < len(in.reports) && (last || !in.reports[nextRep].Finished.After(clock)) {
			s = tr.begin("servdisc.AddReport", g)
			c := call{start: time.Now(), report: nextRep}
			p.AddReport(in.reports[nextRep])
			c.end = time.Now()
			tr.end(s)
			if h.log != nil {
				h.log.calls = append(h.log.calls, c)
				h.st.report = append(h.st.report, c.end.Sub(c.start))
			}
			nextRep++
		}
		if h.snapshot != nil && !last && !clock.Before(nextSnap) {
			s = tr.begin("servdisc.Snapshot", g)
			iv := interval{start: time.Now()}
			h.snapshot()
			iv.end = time.Now()
			tr.end(s)
			h.log.snaps = append(h.log.snaps, iv)
			for !clock.Before(nextSnap) {
				nextSnap = nextSnap.Add(time.Hour)
			}
		}
		tr.end(sb)
		if last {
			if errors.Is(rerr, io.EOF) {
				return fed, nil
			}
			return fed, rerr
		}
	}
}

// borderRef is the reference outcome: the same bytes and reports through
// a sequential (one shard, no workers) pipeline.
type borderRef struct {
	dump     []byte
	scanners []core.ScannerInfo
}

func borderReference(in *borderInput) (*borderRef, error) {
	p, err := servdisc.NewPipeline(servdisc.Config{Campus: in.campus, Academic: in.academic, Shards: 1})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	for _, seg := range []*segment{&in.warm, &in.main} {
		if _, err := replay(p, seg, replayHooks{}); err != nil {
			return nil, err
		}
	}
	p.Flush()
	inv := p.Snapshot()
	return &borderRef{dump: inv.Dump(), scanners: inv.Scanners()}, nil
}

func runBorder(o opts) (*runStats, *ledger, error) {
	in, err := genBorder(o.seed, borderWarmDays, borderDays)
	if err != nil {
		return nil, nil, err
	}
	ref, err := borderReference(in)
	if err != nil {
		return nil, nil, err
	}
	st := &runStats{}
	l := newLedger()
	ins := newInstruments()
	cfg := servdisc.Config{Campus: in.campus, Academic: in.academic, Shards: o.shards}

	// Set-up: a fresh site replays the warm-up day, snapshots, and a cold
	// aggregator bootstraps from it.
	setup := func() (*site, *core.Inventory, error) {
		t0 := time.Now()
		s, err := startSite(cfg, ins)
		if err != nil {
			return nil, nil, err
		}
		if _, err := replay(s.p, &in.warm, replayHooks{}); err != nil {
			s.close()
			return nil, nil, err
		}
		s.p.Flush()
		warm := s.p.Snapshot()
		boot, err := s.connect(ins, warm.Keys())
		if err != nil {
			s.close()
			return nil, nil, err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.bootstrap = append(st.bootstrap, boot.Seconds())
		if !s.drainLocal(10 * time.Second) {
			s.close()
			return nil, nil, errors.New("warm-up events never drained")
		}
		s.takeEvents()
		return s, warm, nil
	}
	for i := 0; i < borderSetups; i++ {
		s, _, err := setup()
		if err != nil {
			return nil, nil, err
		}
		s.close()
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	var spent time.Duration
	for it := 0; it == 0 || spent < budget; it++ {
		s, warm, err := setup()
		if err != nil {
			return nil, nil, err
		}
		el, err := borderIteration(s, warm, in, ref, st, l, ins, o, it)
		s.close()
		if err != nil {
			return nil, nil, err
		}
		spent += el
	}
	l.add("packet.decode", st.records, st.decodeFailed)
	return st, l, nil
}

// borderIteration runs one timed replay on a freshly set-up site and
// returns its wall time.
func borderIteration(s *site, warm *core.Inventory, in *borderInput, ref *borderRef, st *runStats, l *ledger,
	ins *instruments, o opts, it int) (time.Duration, error) {
	st.iterations++
	var localPool keyPool
	localPool.set(warm.Keys())
	lg := newLoadgen(borderQueryRate, s.p.Query, &localPool, o.seed*1000+uint64(it))
	gg := newLoadgen(borderQueryRate, s.agg.Query, &s.globalPool, o.seed*1000+uint64(it)+500)
	st.local = append(st.local, lg)
	st.global = append(st.global, gg)

	before := s.counts()
	seen0, matched0 := tapCounts(s)
	hm := []histMark{mark(ins.dispatch), mark(ins.apply), mark(ins.merge), mark(ins.encode), mark(ins.decode), mark(ins.aggApply)}
	log := &feedLog{}
	o.tr.reset()
	rt := markRuntime()
	stop := startLoadgens(lg, gg)

	root := o.tr.begin("replay", uint64(it))
	t0 := time.Now()
	snapshot := func() *core.Inventory {
		inv := s.p.Snapshot()
		localPool.set(inv.Keys())
		return inv
	}
	n, err := replay(s.p, &in.main, replayHooks{tr: o.tr, snapshot: snapshot, st: st, log: log})
	if err != nil {
		stop()
		return 0, err
	}
	sp := o.tr.begin("servdisc.Flush", 0)
	f0 := time.Now()
	s.p.Flush()
	st.flush = append(st.flush, time.Since(f0))
	o.tr.end(sp)
	sp = o.tr.begin("servdisc.Snapshot", 0)
	iv := interval{start: time.Now()}
	inv := snapshot()
	iv.end = time.Now()
	o.tr.end(sp)
	log.snaps = append(log.snaps, iv)
	elapsed := time.Since(t0)
	o.tr.end(root)
	st.ingestRate = append(st.ingestRate, float64(n)/elapsed.Seconds())
	st.packets += uint64(n)

	stop()
	convergedAt, ok := s.waitGlobal(inv.Keys(), 60*time.Second, time.Millisecond)
	l.check("reference.aggregator", ok, "aggregator service set never equalled the site's %d services", inv.Len())
	st.converge = append(st.converge, convergedAt.Sub(t0).Seconds())
	st.rt.add(rt)
	o.tr.fold()

	for i, h := range []*histTotal{&st.dispatch, &st.apply, &st.merge, &st.encode, &st.decode, &st.aggApply} {
		h.add(hm[i])
	}
	for _, snap := range log.snaps {
		st.snap = append(st.snap, snap.end.Sub(snap.start))
	}
	st.snapshots += len(log.snaps)
	seen, matched := tapCounts(s)
	st.seen += seen - seen0
	st.matched += matched - matched0
	st.heap = append(st.heap, liveHeapMB())

	// Reference checks: the final dump and scanner list equal the
	// sequential run's, and the aggregator holds the same services.
	l.check("reference.dump", bytes.Equal(inv.Dump(), ref.dump),
		"final dump differs from the sequential reference (%d services)", inv.Len())
	l.check("reference.scanners", reflect.DeepEqual(inv.Scanners(), ref.scanners),
		"scanner list differs from the sequential reference")

	// Every service the timed phase added was announced exactly once.
	l.check("reference.drain", s.drainLocal(10*time.Second), "local events never drained")
	evs := s.takeEvents()
	disc := discovered(evs)
	l.check("reference.events", len(disc) == inv.Len()-warm.Len(),
		"%d discovery events for %d new services", len(disc), inv.Len()-warm.Len())
	st.events += uint64(len(evs))
	st.services, st.scanners, st.upgrades, st.expired = inv.Len(), len(inv.Scanners()), 0, 0
	for _, e := range evs {
		switch e.kind {
		case core.EventProvenanceUpgraded:
			st.upgrades++
		case core.EventServiceExpired:
			st.expired++
		}
	}
	borderVisibility(s, &in.main, log, disc, st, l, it)
	lg.account(l, "query.local")
	gg.account(l, "query.global")
	l.add("federate.global_lookup", s.globalN.Load(), s.globalMiss.Load())
	st.addFeed(before, s.counts(), uint64(len(evs)), l)
	return elapsed, nil
}

// borderVisibility maps each discovery to the call that carried its first
// evidence — the batch holding its first packet, or the report of the
// sweep that found it — and times it to the end of the first snapshot
// started after that call returned (local) and to the aggregator
// answering it (global).
func borderVisibility(s *site, in *segment, log *feedLog, disc []localEvent, st *runStats, l *ledger, it int) {
	var batches []call
	reports := map[int]call{}
	for _, c := range log.calls {
		if c.report < 0 {
			batches = append(batches, c)
		} else {
			reports[c.report] = c
		}
	}
	for _, e := range disc {
		var c call
		found := false
		if e.prov == core.ActiveOnly {
			for i, rep := range in.reports {
				if !e.at.Before(rep.Started) && !e.at.After(rep.Finished) {
					c, found = reports[i]
					break
				}
			}
		} else {
			i := sort.Search(len(batches), func(i int) bool { return !batches[i].lastTs.Before(e.at) })
			if i < len(batches) {
				c, found = batches[i], true
			}
		}
		l.check("visibility.call", found, "no call carries the first evidence of %v", e.key)
		if !found {
			continue
		}
		j := sort.Search(len(log.snaps), func(j int) bool { return !log.snaps[j].start.Before(c.end) })
		l.check("visibility.local", j < len(log.snaps), "no snapshot after the call carrying %v", e.key)
		if j < len(log.snaps) {
			st.visLocal.add(it, log.snaps[j].end.Sub(c.start))
		}
		gt, ok := s.globalAt(e.key)
		l.check("visibility.global", ok, "%v never became globally visible", e.key)
		if ok {
			st.visGlobal.add(it, gt.Sub(c.start))
		}
	}
}

// tapCounts sums the monitored links' tap counters: packets the filter
// saw and packets it matched.
func tapCounts(s *site) (seen, matched uint64) {
	for _, link := range []capture.LinkID{capture.LinkCommercial1, capture.LinkCommercial2} {
		if tap, ok := s.p.Monitor().Tap(link); ok {
			seen += uint64(tap.Seen())
			matched += uint64(tap.Matched())
		}
	}
	return seen, matched
}
