package main

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"servdisc"
	"servdisc/internal/core"
	"servdisc/internal/federate"
	"servdisc/internal/obs"
	"servdisc/internal/pipeline"
)

// instruments are the layer histograms the benchmark reads. Every site of
// a run shares one registry, so the same histograms accumulate across
// iterations and each phase reads its own delta.
type instruments struct {
	reg                      *obs.Registry
	dispatch, apply, merge   *obs.Histogram
	encode, decode, aggApply *obs.Histogram
}

func newInstruments() *instruments {
	reg := obs.NewRegistry()
	return &instruments{
		reg: reg,
		// The facade registers these names itself (NewPipeline); fetching
		// them here returns the same histograms it records into.
		dispatch: reg.Histogram("servdisc_ingest_dispatch_seconds", ""),
		apply:    reg.Histogram("servdisc_ingest_apply_seconds", ""),
		merge:    reg.Histogram("servdisc_snapshot_merge_seconds", ""),
		encode:   reg.Histogram("perfbench_publisher_encode_seconds", "Publisher frame encode+write time."),
		decode:   reg.Histogram("perfbench_aggregator_decode_seconds", "Aggregator frame decode time."),
		aggApply: reg.Histogram("perfbench_aggregator_apply_seconds", "Aggregator frame apply time."),
	}
}

// countingConn counts the feed bytes the aggregator reads and stamps the
// first one.
type countingConn struct {
	net.Conn
	bytes atomic.Int64
	first atomic.Int64 // unix ns of the first byte read
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.bytes.Add(int64(n)) == int64(n) {
		c.first.Store(time.Now().UnixNano())
	}
	return n, err
}

// localEvent is one engine event as the benchmark's subscriber saw it.
type localEvent struct {
	kind core.EventKind
	key  core.ServiceKey
	prov core.Provenance
	at   time.Time // observation time
}

// site is one discovery site wired to one aggregator the way the daemons
// wire them: a servdisc.Pipeline running its workers, a federate
// publisher serving it on a loopback TCP listener, and a cold aggregator
// dialing it through a FeedClient. The benchmark subscribes to both event
// streams: the site's to learn what was discovered and expired, the
// aggregator's to time global visibility.
type site struct {
	p      *servdisc.Pipeline
	pub    *federate.Publisher
	agg    *federate.Aggregator
	fc     *federate.FeedClient
	addr   string // the publisher's listener
	conn   atomic.Pointer[countingConn]
	cancel context.CancelFunc
	wg     sync.WaitGroup

	localSub  *core.EventSub
	globalSub *pipeline.Sub[federate.GlobalEvent]

	evMu     sync.Mutex
	events   []localEvent
	received atomic.Uint64 // events the collector has taken off the channel

	// globalSeen maps each globally discovered key to the moment
	// Aggregator.Query first answered it.
	glMu       sync.Mutex
	globalSeen map[core.ServiceKey]time.Time
	globalPool keyPool
	globalMiss atomic.Uint64
	globalN    atomic.Uint64
}

// eventBuffer sizes the benchmark's own event subscriptions: deep enough
// that a whole round or hour of discoveries never drops while the
// collector goroutine is descheduled.
const eventBuffer = 1 << 16

// startSite builds the site's pipeline with the query index on the shared
// registry, starts its workers and subscribes to its events; connect adds
// the publisher and the aggregator.
func startSite(cfg servdisc.Config, in *instruments) (*site, error) {
	cfg.Telemetry = in.reg
	cfg.QueryIndex = true
	p, err := servdisc.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &site{p: p, cancel: cancel, globalSeen: map[core.ServiceKey]time.Time{}}
	p.Run(ctx)
	s.localSub = p.Subscribe(eventBuffer)
	s.wg.Add(1)
	go s.collectLocal()
	return s, nil
}

// connect starts the publisher and the aggregator's feed, and returns once
// the aggregator applied the bootstrap snapshot (the time from the first
// feed byte to that point is the bootstrap time). known seeds the pool of
// globally visible keys with the services the bootstrap carried.
func (s *site) connect(in *instruments, known []core.ServiceKey) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("listen: %w", err)
	}
	s.pub = federate.NewPublisherOpts("campus", s.p, federate.PublisherState{}, federate.PublisherOptions{})
	s.pub.SetMetrics(&federate.PublisherMetrics{Encode: in.encode})
	s.agg = federate.NewAggregator()
	s.agg.SetMetrics(&federate.AggregatorMetrics{Decode: in.decode, Apply: in.aggApply})
	s.addr = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	prev := s.cancel
	s.cancel = func() { cancel(); prev() }
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = s.pub.Serve(ctx, ln)
	}()
	s.fc = s.feed(s.agg, &s.conn)
	go func() {
		defer s.wg.Done()
		_ = s.fc.Run(ctx)
	}()
	boot, err := awaitBootstrap(s.fc, &s.conn)
	if err != nil {
		return 0, err
	}
	// The aggregator builds its query index lazily, on the first query;
	// a query-ready aggregator is part of set-up.
	if _, err := s.agg.Query(pointQuery(core.ServiceKey{})); err != nil {
		return 0, fmt.Errorf("aggregator index: %w", err)
	}
	s.globalPool.set(slices.Clone(known))
	s.globalSub = s.agg.Subscribe(eventBuffer)
	s.wg.Add(1)
	go s.watchGlobal()
	return boot, nil
}

// feed returns a FeedClient that feeds agg from the site's publisher over
// a connection it stores in conn.
func (s *site) feed(agg *federate.Aggregator, conn *atomic.Pointer[countingConn]) *federate.FeedClient {
	return federate.NewFeedClient(agg, s.addr, federate.FeedOptions{
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", s.addr)
			if err != nil {
				return nil, err
			}
			cc := &countingConn{Conn: c}
			conn.Store(cc)
			return cc, nil
		},
	})
}

// awaitBootstrap waits until fc applied the hello and the snapshot, the
// first two frames, and returns the time from the first feed byte.
func awaitBootstrap(fc *federate.FeedClient, conn *atomic.Pointer[countingConn]) (time.Duration, error) {
	deadline := time.Now().Add(60 * time.Second)
	for fc.Stats().FramesApplied < 2 {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("aggregator bootstrap timed out")
		}
		time.Sleep(50 * time.Microsecond)
	}
	done := time.Now()
	return done.Sub(time.Unix(0, conn.Load().first.Load())), nil
}

// probeBootstrap bootstraps one more cold aggregator from the site's
// publisher, returns its bootstrap time and service count, and closes it.
func (s *site) probeBootstrap() (time.Duration, int, error) {
	agg := federate.NewAggregator()
	defer agg.Close()
	var conn atomic.Pointer[countingConn]
	fc := s.feed(agg, &conn)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = fc.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	boot, err := awaitBootstrap(fc, &conn)
	return boot, agg.NumServices(), err
}

func (s *site) collectLocal() {
	defer s.wg.Done()
	for ev := range s.localSub.Events() {
		s.received.Add(1)
		switch ev.Kind {
		case core.EventServiceDiscovered, core.EventServiceExpired, core.EventProvenanceUpgraded:
			s.evMu.Lock()
			s.events = append(s.events, localEvent{kind: ev.Kind, key: ev.Key, prov: ev.Provenance, at: ev.Time})
			s.evMu.Unlock()
		}
	}
}

// drainLocal waits until the collector has taken every event the engine
// published so far (the benchmark's subscription never drops: its buffer
// outsizes any burst, and drops are counted as failures anyway).
func (s *site) drainLocal(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.received.Load()+uint64(s.localSub.Dropped()) < uint64(s.p.EventCounters().In()) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// takeEvents returns the events collected since the last call.
func (s *site) takeEvents() []localEvent {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	evs := s.events
	s.events = nil
	return evs
}

// watchGlobal times global visibility: a service counts as globally
// visible once the aggregator has emitted its discovery and
// Aggregator.Query answers a point lookup for it.
func (s *site) watchGlobal() {
	defer s.wg.Done()
	for ge := range s.globalSub.Events() {
		if ge.Event.Kind != core.EventServiceDiscovered {
			continue
		}
		k := ge.Event.Key
		s.globalN.Add(1)
		ok := false
		for try := 0; try < 1000 && !ok; try++ {
			res, err := s.agg.Query(pointQuery(k))
			ok = err == nil && hit(res, k)
			if !ok {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if !ok {
			s.globalMiss.Add(1)
			continue
		}
		now := time.Now()
		s.glMu.Lock()
		if _, dup := s.globalSeen[k]; !dup {
			s.globalSeen[k] = now
		}
		s.glMu.Unlock()
		s.globalPool.push(k)
	}
}

func (s *site) globalAt(k core.ServiceKey) (time.Time, bool) {
	s.glMu.Lock()
	defer s.glMu.Unlock()
	t, ok := s.globalSeen[k]
	return t, ok
}

// waitGlobal polls until the aggregator's live service set equals want,
// returning when it did.
func (s *site) waitGlobal(want []core.ServiceKey, timeout time.Duration, every time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if s.agg.NumServices() == len(want) && sameKeys(s.agg.Services(), want) {
			return time.Now(), true
		}
		if time.Now().After(deadline) {
			return time.Now(), false
		}
		time.Sleep(every)
	}
}

func sameKeys(got []federate.GlobalService, want []core.ServiceKey) bool {
	if len(got) != len(want) {
		return false
	}
	set := make(map[core.ServiceKey]struct{}, len(want))
	for _, k := range want {
		set[k] = struct{}{}
	}
	for _, g := range got {
		if _, ok := set[g.Key]; !ok {
			return false
		}
	}
	return true
}

// feedCounts reads the failure-relevant counters of the site's event hubs,
// publisher and feed.
type feedCounts struct {
	localDropped, pubDropped, evictions, globalDropped uint64
	disconnects, resumeHits, frames                    uint64
	bytes                                              int64
}

func (s *site) counts() feedCounts {
	var c feedCounts
	c.localDropped = uint64(s.p.EventCounters().Dropped())
	if s.pub != nil {
		c.pubDropped = uint64(s.pub.Dropped() + s.pub.FrameCounters().Dropped())
		c.evictions = s.pub.Stats().Evictions
	}
	if s.agg != nil {
		c.globalDropped = uint64(s.agg.EventCounters().Dropped())
	}
	if s.fc != nil {
		st := s.fc.Stats()
		c.disconnects, c.resumeHits, c.frames = st.Disconnects, st.ResumeHits, st.FramesApplied
	}
	if cc := s.conn.Load(); cc != nil {
		c.bytes = cc.bytes.Load()
	}
	return c
}

// close stops every goroutine the site started and waits for them.
func (s *site) close() {
	s.cancel()
	if s.pub != nil {
		s.pub.Close()
	}
	s.p.Close()
	if s.agg != nil {
		s.agg.Close()
	}
	s.wg.Wait()
}
