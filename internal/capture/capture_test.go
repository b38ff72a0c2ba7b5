package capture

import (
	"bytes"
	"context"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/trace"
)

var (
	campusPfx = netaddr.MustParsePrefix("128.125.0.0/16")
	server    = netaddr.MustParseV4("128.125.7.9")
	client    = netaddr.MustParseV4("64.1.2.3")
	academic  = netaddr.MustParseV4("192.12.0.5")
	tRef      = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	bld       = packet.NewBuilder(0)
)

func synAckTo(dst netaddr.V4, at time.Time) *packet.Packet {
	return bld.SynAck(at, packet.Endpoint{Addr: server, Port: 80}, packet.Endpoint{Addr: dst, Port: 40000}, 1, 2)
}

// collectSink gathers delivered packets for assertions.
type collectSink struct {
	pkts []packet.Packet
}

func (c *collectSink) HandleBatch(batch []packet.Packet) {
	c.pkts = append(c.pkts, batch...)
}

// feed delivers pkts to sink as one batch.
func feed(sink pipeline.BatchSink, pkts ...*packet.Packet) {
	batch := make([]packet.Packet, len(pkts))
	for i, p := range pkts {
		batch[i] = *p
	}
	sink.HandleBatch(batch)
}

// feedSized delivers pkts to sink in consecutive batches of size packets.
func feedSized(sink pipeline.BatchSink, pkts []packet.Packet, size int) {
	for lo := 0; lo < len(pkts); lo += size {
		sink.HandleBatch(pkts[lo:min(lo+size, len(pkts))])
	}
}

func TestAssignerRouting(t *testing.T) {
	a := NewAssigner(campusPfx, []netaddr.V4{academic})
	if got := a.Route(synAckTo(academic, tRef)); got != LinkInternet2 {
		t.Errorf("academic peer routed to %v", got)
	}
	// Commercial routing is deterministic per external address.
	l1 := a.Route(synAckTo(client, tRef))
	l2 := a.Route(synAckTo(client, tRef.Add(time.Hour)))
	if l1 != l2 {
		t.Error("routing not deterministic")
	}
	if l1 == LinkInternet2 {
		t.Error("non-academic peer on Internet2")
	}
	// The split should use both commercial links across many clients.
	counts := map[LinkID]int{}
	for i := 0; i < 3000; i++ {
		p := synAckTo(client+netaddr.V4(i*7), tRef)
		counts[a.Route(p)]++
	}
	if counts[LinkCommercial1] == 0 || counts[LinkCommercial2] == 0 {
		t.Fatalf("commercial split = %v", counts)
	}
	ratio := float64(counts[LinkCommercial1]) / float64(counts[LinkCommercial2])
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("C1:C2 ratio = %.2f, want ~2", ratio)
	}
}

func TestTapFilterAndCounts(t *testing.T) {
	sink := &collectSink{}
	tap, err := NewTap(LinkCommercial1, PaperFilter, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	// SYN-ACK passes; a bare ACK does not.
	ack := bld.TCPPacket(tRef, packet.Endpoint{Addr: server, Port: 80},
		packet.Endpoint{Addr: client, Port: 40000}, packet.FlagACK, 1, 2, nil)
	feed(tap, synAckTo(client, tRef), ack)
	if len(sink.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(sink.pkts))
	}
	if tap.Seen() != 2 || tap.Matched() != 1 || tap.Delivered() != 1 {
		t.Errorf("counts = %d/%d/%d", tap.Seen(), tap.Matched(), tap.Delivered())
	}
	if c := tap.Counters(); c.Dropped() != 1 {
		t.Errorf("dropped = %d", c.Dropped())
	}
}

func TestTapHandleBatchMatchesPerPacket(t *testing.T) {
	// Three full default batches and a partial one; every fourth packet is
	// a non-matching ACK and the sampler cuts the trace into windows, so
	// both the all-kept fast path and the compacting slow path run.
	var pkts []packet.Packet
	for i := 0; i < 3*pipeline.DefaultBatchSize+10; i++ {
		p := synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*10*time.Second))
		if i%4 == 3 {
			p = bld.TCPPacket(p.Timestamp, packet.Endpoint{Addr: server, Port: 80},
				packet.Endpoint{Addr: client, Port: 40000}, packet.FlagACK, 1, 2, nil)
		}
		pkts = append(pkts, *p)
	}
	run := func(size int) (*collectSink, *Tap) {
		sink := &collectSink{}
		tap, err := NewTap(LinkCommercial1, PaperFilter, NewFixedWindowSampler(tRef, 30*time.Minute), sink)
		if err != nil {
			t.Fatal(err)
		}
		feedSized(tap, pkts, size)
		return sink, tap
	}
	batchSink, batchTap := run(pipeline.DefaultBatchSize)
	pktSink, pktTap := run(1)

	if len(batchSink.pkts) != len(pktSink.pkts) {
		t.Fatalf("%d-packet batches delivered %d, one-packet batches %d",
			pipeline.DefaultBatchSize, len(batchSink.pkts), len(pktSink.pkts))
	}
	for i := range batchSink.pkts {
		if batchSink.pkts[i].IPv4.Dst != pktSink.pkts[i].IPv4.Dst {
			t.Fatalf("packet %d differs between batch sizes", i)
		}
	}
	if batchTap.Seen() != pktTap.Seen() || batchTap.Matched() != pktTap.Matched() ||
		batchTap.Delivered() != pktTap.Delivered() {
		t.Errorf("counter mismatch: batched %d/%d/%d vs one-packet %d/%d/%d",
			batchTap.Seen(), batchTap.Matched(), batchTap.Delivered(),
			pktTap.Seen(), pktTap.Matched(), pktTap.Delivered())
	}
	if d := batchTap.Delivered(); d == 0 || d == batchTap.Matched() {
		t.Errorf("delivered %d of %d matched: want the sampler to keep some, not all", d, batchTap.Matched())
	}
}

func TestMonitorDropsUnmonitoredLink(t *testing.T) {
	a := NewAssigner(campusPfx, []netaddr.V4{academic})
	delivered := 0
	tapC1, err := NewTap(LinkCommercial1, "", nil, pipeline.BatchFunc(func(b []packet.Packet) { delivered += len(b) }))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(a, tapC1)
	feed(m, synAckTo(academic, tRef)) // I2: unmonitored
	if m.Dropped() != 1 || delivered != 0 {
		t.Errorf("dropped=%d delivered=%d", m.Dropped(), delivered)
	}
	// Find a client that routes to C1.
	for i := 0; i < 100; i++ {
		c := client + netaddr.V4(i)
		if a.Route(synAckTo(c, tRef)) == LinkCommercial1 {
			feed(m, synAckTo(c, tRef))
			break
		}
	}
	if delivered != 1 {
		t.Errorf("delivered = %d", delivered)
	}
}

func TestMonitorBatchRoutingAndMirrors(t *testing.T) {
	a := NewAssigner(campusPfx, []netaddr.V4{academic})
	c1, c2, mirror := &collectSink{}, &collectSink{}, &collectSink{}
	tap1, err := NewTap(LinkCommercial1, "", nil, c1)
	if err != nil {
		t.Fatal(err)
	}
	tap2, err := NewTap(LinkCommercial2, "", nil, c2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(a, tap1, tap2)
	m.AddMirror(mirror)

	var batch []packet.Packet
	batch = append(batch, *synAckTo(academic, tRef)) // dropped: unmonitored I2
	for i := 0; i < 30; i++ {
		batch = append(batch, *synAckTo(client+netaddr.V4(i*7), tRef.Add(time.Duration(i)*time.Second)))
	}
	m.HandleBatch(batch)

	if m.Dropped() != 1 {
		t.Errorf("dropped = %d", m.Dropped())
	}
	if got := len(c1.pkts) + len(c2.pkts); got != 30 {
		t.Errorf("taps saw %d packets, want 30", got)
	}
	if len(mirror.pkts) != 30 {
		t.Errorf("mirror saw %d packets, want 30 (monitored only)", len(mirror.pkts))
	}
	// Mirror preserves arrival order of the monitored sub-batch.
	for i := 1; i < len(mirror.pkts); i++ {
		if mirror.pkts[i].Timestamp.Before(mirror.pkts[i-1].Timestamp) {
			t.Fatal("mirror reordered packets")
		}
	}
}

func TestMonitorSharedSinkPreservesOrder(t *testing.T) {
	// When one sink is behind several taps (the experiments' merged
	// discoverer), batched delivery must preserve global arrival order
	// even for batches interleaving links — otherwise FirstSeen and the
	// activity trail would depend on the batch size. One-packet batches
	// and default-sized ones must deliver the same stream.
	a := NewAssigner(campusPfx, []netaddr.V4{academic})

	// Find clients on different links, then interleave them with an
	// unmonitored academic peer.
	var c1, c2 netaddr.V4
	for i := 0; i < 200 && (c1 == 0 || c2 == 0); i++ {
		c := client + netaddr.V4(i)
		if a.Route(synAckTo(c, tRef)) == LinkCommercial1 {
			if c1 == 0 {
				c1 = c
			}
		} else if c2 == 0 {
			c2 = c
		}
	}
	if c1 == 0 || c2 == 0 {
		t.Fatal("could not find clients on both links")
	}
	var pkts, want []packet.Packet
	for i := 0; i < 3*pipeline.DefaultBatchSize+5; i++ {
		dst := [...]netaddr.V4{c1, c2, c2, academic}[i%4]
		pkts = append(pkts, *synAckTo(dst, tRef.Add(time.Duration(i)*time.Second)))
		if dst != academic {
			want = append(want, pkts[i])
		}
	}

	run := func(size int) (*collectSink, *Monitor) {
		shared := &collectSink{}
		tap1, err := NewTap(LinkCommercial1, "", nil, shared)
		if err != nil {
			t.Fatal(err)
		}
		tap2, err := NewTap(LinkCommercial2, "", nil, shared)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor(a, tap1, tap2)
		feedSized(m, pkts, size)
		return shared, m
	}
	for _, size := range []int{1, pipeline.DefaultBatchSize} {
		shared, m := run(size)
		if len(shared.pkts) != len(want) {
			t.Fatalf("size %d: shared sink got %d packets, want %d", size, len(shared.pkts), len(want))
		}
		for i := range shared.pkts {
			if !shared.pkts[i].Timestamp.Equal(want[i].Timestamp) {
				t.Fatalf("size %d: packet %d out of order: %v", size, i, shared.pkts[i].Timestamp)
			}
		}
		c := m.Counters()
		if c.In() != len(pkts) || c.Out() != len(want) || c.Dropped() != len(pkts)-len(want) {
			t.Errorf("size %d: monitor counters = %d/%d/%d", size, c.In(), c.Out(), c.Dropped())
		}
	}
}

func TestReplayCancel(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.LinkTypeRaw, 128)
	rec := NewRecorder(w)
	for i := 0; i < 10; i++ {
		feed(rec, synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*time.Second)))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := Replay(ctx, r, &collectSink{}, 4)
	if err == nil || n != 0 {
		t.Fatalf("cancelled replay delivered %d packets, err=%v", n, err)
	}
}

func TestFixedWindowSampler(t *testing.T) {
	s := NewFixedWindowSampler(tRef, 10*time.Minute)
	cases := []struct {
		off  time.Duration
		want bool
	}{
		{0, true},
		{9*time.Minute + 59*time.Second, true},
		{10 * time.Minute, false},
		{59 * time.Minute, false},
		{time.Hour, true},
		{time.Hour + 15*time.Minute, false},
		{25*time.Hour + 5*time.Minute, true},
	}
	for _, c := range cases {
		p := synAckTo(client, tRef.Add(c.off))
		if got := s.Keep(p); got != c.want {
			t.Errorf("Keep(+%v) = %v, want %v", c.off, got, c.want)
		}
	}
}

func TestFixedWindowFullCoverage(t *testing.T) {
	s := NewFixedWindowSampler(tRef, time.Hour)
	for off := time.Duration(0); off < 2*time.Hour; off += 7 * time.Minute {
		if !s.Keep(synAckTo(client, tRef.Add(off))) {
			t.Fatalf("full-window sampler dropped +%v", off)
		}
	}
}

func TestProbabilisticSampler(t *testing.T) {
	s := &ProbabilisticSampler{P: 0.3}
	kept := 0
	const total = 20000
	for i := 0; i < total; i++ {
		p := synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*time.Millisecond))
		if s.Keep(p) {
			kept++
		}
	}
	frac := float64(kept) / total
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("keep fraction = %.3f", frac)
	}
	// Determinism: identical packet, identical decision.
	p := synAckTo(client, tRef)
	if s.Keep(p) != s.Keep(p) {
		t.Error("sampler not deterministic")
	}
	if !(&ProbabilisticSampler{P: 1}).Keep(p) {
		t.Error("P=1 dropped")
	}
	if (&ProbabilisticSampler{P: 0}).Keep(p) {
		t.Error("P=0 kept")
	}
}

func TestCountingSampler(t *testing.T) {
	cs := &CountingSampler{Inner: NewFixedWindowSampler(tRef, 30*time.Minute)}
	cs.Keep(synAckTo(client, tRef))
	cs.Keep(synAckTo(client, tRef.Add(45*time.Minute)))
	if cs.Kept != 1 || cs.Dropped != 1 {
		t.Errorf("kept=%d dropped=%d", cs.Kept, cs.Dropped)
	}
	all := &CountingSampler{}
	if !all.Keep(synAckTo(client, tRef)) {
		t.Error("nil inner should keep")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.LinkTypeRaw, 128)
	rec := NewRecorder(w)
	var batch []packet.Packet
	for i := 0; i < 10; i++ {
		batch = append(batch, *synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*time.Second)))
	}
	rec.HandleBatch(batch)
	if rec.Err() != nil || rec.Written != 10 {
		t.Fatalf("written=%d err=%v", rec.Written, rec.Err())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := &collectSink{}
	n, err := Replay(context.Background(), r, replayed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || len(replayed.pkts) != 10 {
		t.Fatalf("replayed %d packets", n)
	}
	for i := range replayed.pkts {
		p := &replayed.pkts[i]
		if p.IPv4.Src != server || !p.TCP.Flags.Has(packet.FlagSYN|packet.FlagACK) {
			t.Errorf("packet %d corrupted in round trip", i)
		}
	}
}

func TestNewTapBadFilter(t *testing.T) {
	if _, err := NewTap(LinkCommercial1, "bogus expr ((", nil, nil); err == nil {
		t.Error("bad filter accepted")
	}
}

func BenchmarkMonitorHandleBatch(b *testing.B) {
	a := NewAssigner(campusPfx, nil)
	sink := pipeline.BatchFunc(func([]packet.Packet) {})
	tap1, _ := NewTap(LinkCommercial1, PaperFilter, nil, sink)
	tap2, _ := NewTap(LinkCommercial2, PaperFilter, nil, sink)
	m := NewMonitor(a, tap1, tap2)
	batch := make([]packet.Packet, 0, 256)
	for i := 0; i < 256; i++ {
		batch = append(batch, *synAckTo(client+netaddr.V4(i), tRef))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.HandleBatch(batch)
	}
}
