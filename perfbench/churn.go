package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"servdisc"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
)

// Inventory-churn sizing. Each round re-observes churnReobserve residents
// (so every resident is seen again every churnResidents/churnReobserve
// rounds) and adds churnBirths new services that are never seen again.
// One round advances the observation clock by churnStep; the TTL is
// longer than the resident rotation, so the residents stay while the
// births expire churnTTLRounds rounds after they appeared. The preload
// holds the births of the churnTTLRounds rounds before the first, so
// births and expiries balance from the first round on.
const (
	churnResidents  = 100_000
	churnReobserve  = 1_000
	churnBirths     = 150
	churnStep       = time.Minute
	churnTTLRounds  = 120
	churnTTL        = churnTTLRounds * churnStep
	churnPreBirths  = churnTTLRounds * churnBirths
	churnQueryRate  = 200     // requests/s per side
	churnMaxDeltas  = 1 << 20 // above any run's checkpoint count: every timed checkpoint is a delta
	churnSetups     = 3
	churnProbes     = 2 // extra cold bootstraps per set-up, for converge_s
	churnCampus     = "10.0.0.0/8"
	churnStride     = (churnReobserve + churnBirths) / churnBirths // births sit every churnStride packets
	churnClientPool = 4096
)

var churnPorts = []uint16{80, 443, 22, 21, 25, 3306, 8080, 53}

// churnInput is the generated key space: resident and birth keys at
// uniformly random, distinct addresses (residents in 10.0.0.0/9, births in
// 10.128.0.0/9) with ports drawn from churnPorts, all from the seed.
type churnInput struct {
	residents []core.ServiceKey
	births    []core.ServiceKey // grown on demand, in order
	rng       *rand.Rand
	used      map[netaddr.V4]bool
	clients   []netaddr.V4
	t0        time.Time
	tmpl      packet.Packet
}

func genChurn(seed uint64) *churnInput {
	in := &churnInput{
		rng:  rand.New(rand.NewPCG(seed, 0xC4A7)),
		used: map[netaddr.V4]bool{},
		t0:   time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC),
	}
	in.residents = make([]core.ServiceKey, churnResidents)
	for i := range in.residents {
		in.residents[i] = in.newKey(netaddr.MustParseV4("10.0.0.0"))
	}
	ext := uint32(netaddr.MustParseV4("172.16.0.0"))
	in.clients = make([]netaddr.V4, churnClientPool)
	for i := range in.clients {
		in.clients[i] = netaddr.V4(ext + in.rng.Uint32()&0xFFFFF)
	}
	b := packet.NewBuilder(64)
	in.tmpl = *b.SynAck(in.t0, packet.Endpoint{Addr: in.residents[0].Addr, Port: 80},
		packet.Endpoint{Addr: in.clients[0], Port: 40000}, 1, 1)
	return in
}

// newKey draws a key at an unused address of the /9 starting at base.
func (in *churnInput) newKey(base netaddr.V4) core.ServiceKey {
	for {
		a := base + netaddr.V4(in.rng.Uint32()&(1<<23-1))
		if !in.used[a] {
			in.used[a] = true
			return core.ServiceKey{Addr: a, Proto: packet.ProtoTCP,
				Port: churnPorts[in.rng.IntN(len(churnPorts))]}
		}
	}
}

// birth returns the i-th new service of the run.
func (in *churnInput) birth(i int) core.ServiceKey {
	for len(in.births) <= i {
		in.births = append(in.births, in.newKey(netaddr.MustParseV4("10.128.0.0")))
	}
	return in.births[i]
}

// roundTime is the observation time of round r's packets; rounds before
// 0 are those whose births the preload holds.
func (in *churnInput) roundTime(r int) time.Time {
	return in.t0.Add(time.Duration(r+1) * churnStep)
}

// synack is the SYN-ACK evidence of key at ts: a campus server answering
// an external client, which the monitor routes to a commercial link.
func (in *churnInput) synack(key core.ServiceKey, ts time.Time, n int) packet.Packet {
	p := in.tmpl
	p.Timestamp = ts
	p.IPv4.Src = key.Addr
	p.IPv4.Dst = in.clients[n%len(in.clients)]
	p.TCP.SrcPort = key.Port
	p.TCP.DstPort = uint16(1024 + n%60000)
	return p
}

// feedBatches hands pkts to HandleBatch in DefaultBatchSize batches,
// calling each with the batch index range it covered.
func feedBatches(p *servdisc.Pipeline, pkts []packet.Packet, tr *tracer, group uint64, each func(lo, hi int, c call)) {
	for lo := 0; lo < len(pkts); lo += pipeline.DefaultBatchSize {
		hi := min(lo+pipeline.DefaultBatchSize, len(pkts))
		s := tr.begin("servdisc.HandleBatch", group)
		c := call{start: time.Now(), report: -1}
		p.HandleBatch(pkts[lo:hi])
		c.end = time.Now()
		tr.end(s)
		if each != nil {
			each(lo, hi, c)
		}
	}
}

func runChurn(o opts) (*runStats, *ledger, error) {
	in := genChurn(o.seed)
	st := &runStats{}
	l := newLedger()
	ins := newInstruments()
	ckptRoot := filepath.Join(o.work, fmt.Sprintf("ckpt-%d", os.Getpid()))
	defer os.RemoveAll(ckptRoot)

	// Preload packets, in time order: the births of the churnTTLRounds
	// rounds before the first, then every resident seen once at t0.
	preload := make([]packet.Packet, 0, churnPreBirths+len(in.residents))
	for i := 0; i < churnPreBirths; i++ {
		ts := in.roundTime(i/churnBirths - churnTTLRounds)
		preload = append(preload, in.synack(in.birth(i), ts, i))
	}
	for i, k := range in.residents {
		preload = append(preload, in.synack(k, in.t0, i))
	}

	var s *site
	for i := 0; i < churnSetups; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		dir := filepath.Join(ckptRoot, fmt.Sprint(i))
		t0 := time.Now()
		ns, boot, err := churnSetup(in, preload, dir, o, ins, l)
		if err != nil {
			return nil, nil, err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.bootstrap = append(st.bootstrap, boot.Seconds())
		st.converge = append(st.converge, boot.Seconds())
		s = ns
		for j := 0; j < churnProbes; j++ {
			boot, n, err := s.probeBootstrap()
			if err != nil {
				s.close()
				return nil, nil, err
			}
			l.check("reference.bootstrap", n == len(preload),
				"aggregator bootstrapped %d services, want %d", n, len(preload))
			st.converge = append(st.converge, boot.Seconds())
		}
	}
	preload = nil
	defer s.close()
	err := churnTimed(s, in, st, l, ins, o)
	return st, l, err
}

// churnSetup builds a site, preloads the residents, takes the first
// snapshot and baseline checkpoint, and lets a cold aggregator bootstrap
// from the site. It returns the site and the bootstrap time.
func churnSetup(in *churnInput, preload []packet.Packet, dir string, o opts, ins *instruments, l *ledger) (*site, time.Duration, error) {
	s, err := startSite(servdisc.Config{
		Campus:     churnCampus,
		Shards:     o.shards,
		Retention:  servdisc.RetentionPolicy{PassiveTTL: churnTTL},
		Checkpoint: &servdisc.CheckpointOptions{Dir: dir, MaxDeltas: churnMaxDeltas},
	}, ins)
	if err != nil {
		return nil, 0, err
	}
	feedBatches(s.p, preload, nil, 0, nil)
	s.p.Flush()
	inv := s.p.Snapshot()
	l.check("reference.preload", inv.Len() == len(preload),
		"preload left %d services, want %d", inv.Len(), len(preload))
	if _, err := s.p.Checkpoint(context.Background()); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("baseline checkpoint: %w", err)
	}
	boot, err := s.connect(ins, nil)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	n := s.agg.NumServices()
	l.check("reference.bootstrap", n == len(preload),
		"aggregator bootstrapped %d services, want %d", n, len(preload))
	s.takeEvents() // the preload's discoveries are not timed
	return s, boot, nil
}

// churnTimed runs closed-loop rounds for the run's time budget with
// open-loop readers on both sides.
func churnTimed(s *site, in *churnInput, st *runStats, l *ledger, ins *instruments, o opts) error {
	st.iterations = 1
	var residents keyPool
	residents.set(in.residents)
	lg := newLoadgen(churnQueryRate, s.p.Query, &residents, o.seed*1000)
	gg := newLoadgen(churnQueryRate, s.agg.Query, &residents, o.seed*1000+500)
	st.local, st.global = []*loadgen{lg}, []*loadgen{gg}

	before := s.counts()
	hm := []histMark{mark(ins.dispatch), mark(ins.apply), mark(ins.merge), mark(ins.encode),
		mark(ins.decode), mark(ins.aggApply)}
	rt := markRuntime()
	pkts := make([]packet.Packet, 0, churnReobserve+churnBirths)
	birthCall := make([]call, churnBirths)
	type birthRec struct {
		key   core.ServiceKey
		at    time.Time // observation time of its only evidence
		start time.Time // start of the HandleBatch call carrying it; zero for the preload's
	}
	births := make([]birthRec, churnPreBirths)
	for i := range births {
		births[i] = birthRec{key: in.birth(i), at: in.roundTime(i/churnBirths - churnTTLRounds)}
	}
	expiredSeen := 0
	nBirths := churnPreBirths
	var events uint64
	// checkExpired checks that every service expired so far is gone from
	// the local index.
	checkExpired := func() {
		for _, e := range s.takeEvents() {
			events++
			if e.kind != core.EventServiceExpired {
				continue
			}
			expiredSeen++
			res, err := s.p.Query(pointQuery(e.key))
			l.check("reference.expired", err == nil && len(res.Hits) == 0,
				"expired %v still answers a point query", e.key)
		}
	}

	// Checkpoints run beside the rounds, as the daemon's checkpoint ticker
	// runs beside ingest: every round starts a delta checkpoint once the
	// previous one has finished, so every round sees the same background
	// write.
	ckptDone := make(chan struct{})
	close(ckptDone)
	stop := startLoadgens(lg, gg)
	budget := time.Duration(o.seconds * float64(time.Second))
	t0 := time.Now()
	var last time.Time
	for r := 0; r == 0 || time.Since(t0) < budget; r++ {
		root := o.tr.begin("round", uint64(r))
		ts := in.roundTime(r)
		pkts = pkts[:0]
		ri := 0
		for j := 0; j < churnReobserve+churnBirths; j++ {
			at := ts.Add(time.Duration(j) * time.Microsecond)
			if i := j / churnStride; j%churnStride == 0 && i < churnBirths {
				pkts = append(pkts, in.synack(in.birth(nBirths+i), at, j))
				continue
			}
			k := in.residents[(r*churnReobserve+ri)%len(in.residents)]
			ri++
			pkts = append(pkts, in.synack(k, at, j))
		}
		last = pkts[len(pkts)-1].Timestamp
		feedBatches(s.p, pkts, o.tr, uint64(r), func(lo, hi int, c call) {
			for i := (lo + churnStride - 1) / churnStride; i < churnBirths && i*churnStride < hi; i++ {
				birthCall[i] = c
			}
			st.handleT += c.end.Sub(c.start)
		})
		st.packets += uint64(len(pkts))
		sp := o.tr.begin("servdisc.Snapshot", uint64(r))
		snapStart := time.Now()
		s.p.Snapshot()
		snapEnd := time.Now()
		o.tr.end(sp)
		st.snap = append(st.snap, snapEnd.Sub(snapStart))
		st.snapshots++

		// Each birth must answer a point query at the epoch that counts it
		// visible.
		sp = o.tr.begin("verify", uint64(r))
		for i := 0; i < churnBirths; i++ {
			k := in.birth(nBirths + i)
			res, err := s.p.Query(pointQuery(k))
			l.check("reference.birth", err == nil && hit(res, k), "birth %v not answered at its epoch", k)
			st.visLocal.add(0, snapEnd.Sub(birthCall[i].start))
			births = append(births, birthRec{k, pkts[i*churnStride].Timestamp, birthCall[i].start})
		}
		nBirths += churnBirths
		checkExpired()
		o.tr.end(sp)

		sp = o.tr.begin("checkpoint.wait", uint64(r))
		<-ckptDone
		o.tr.end(sp)
		ckptDone = startCheckpoint(s, st, l)
		o.tr.end(root)
		o.tr.fold()
		o.tr.reset()
	}
	sp := o.tr.begin("servdisc.Flush", 0)
	f0 := time.Now()
	s.p.Flush()
	st.flush = append(st.flush, time.Since(f0))
	o.tr.end(sp)
	inv := s.p.Snapshot()
	<-ckptDone
	elapsed := time.Since(t0)
	stop()
	st.rt.add(rt)
	o.tr.fold()
	st.ingestRate = append(st.ingestRate, float64(st.packets)/elapsed.Seconds())

	// The aggregator ends with the site's service set.
	_, ok := s.waitGlobal(inv.Keys(), 60*time.Second, 5*time.Millisecond)
	l.check("reference.aggregator", ok, "aggregator never matched the site's %d services", inv.Len())
	for i, h := range []*histTotal{&st.dispatch, &st.apply, &st.merge, &st.encode, &st.decode, &st.aggApply} {
		h.add(hm[i])
	}
	checkExpired()

	// Every timed birth became globally visible, and exactly the births
	// whose TTL the final watermark passed have expired.
	want := 0
	for _, b := range births {
		if !b.start.IsZero() {
			gt, ok := s.globalAt(b.key)
			l.check("visibility.global", ok, "birth %v never became globally visible", b.key)
			if ok {
				st.visGlobal.add(0, gt.Sub(b.start))
			}
		}
		if !last.Before(b.at.Add(churnTTL)) {
			want++
		}
	}
	l.check("reference.expiries", expiredSeen == want, "%d expiries, want %d", expiredSeen, want)
	l.check("reference.services", inv.Len() == len(in.residents)+nBirths-want,
		"%d live services, want %d", inv.Len(), len(in.residents)+nBirths-want)
	st.services, st.scanners, st.expired = inv.Len(), len(inv.Scanners()), expiredSeen
	st.events += events
	st.heap = append(st.heap, liveHeapMB())
	lg.account(l, "query.local")
	gg.account(l, "query.global")
	l.add("federate.global_lookup", s.globalN.Load(), s.globalMiss.Load())
	st.addFeed(before, s.counts(), events, l)
	return nil
}

// startCheckpoint writes a delta checkpoint on its own goroutine and
// returns a channel closed when it is done; its figures land in st before
// the close.
func startCheckpoint(s *site, st *runStats, l *ledger) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		c0 := time.Now()
		res, err := s.p.Checkpoint(context.Background())
		st.ckpt = append(st.ckpt, time.Since(c0))
		l.check("checkpoint.write", err == nil, "checkpoint: %v", err)
		if err == nil && !res.Full && !res.Skipped {
			st.ckptBytes = append(st.ckptBytes, float64(res.Bytes))
		}
	}()
	return done
}
