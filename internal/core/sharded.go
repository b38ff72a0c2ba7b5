package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
)

// EngineMetrics is the telemetry bundle a ShardedPassive reports into.
// Every field is optional (nil histograms and recorders are no-ops);
// the bundle itself may be nil, which skips the clock reads entirely so
// an uninstrumented engine pays nothing.
type EngineMetrics struct {
	// Dispatch observes the partition+scatter time of each HandleBatch
	// call (inline mode also includes the shard applies).
	Dispatch *obs.Histogram
	// Apply observes per-sub-batch shard apply time on the workers.
	Apply *obs.Histogram
	// Snapshot observes the freeze+merge time of each snapshot actually
	// built (the zero-churn cache fast path is deliberately untimed — it
	// must stay allocation- and work-free).
	Snapshot *obs.Histogram
	// Flight receives batch-dispatched (sampled 1/obs.BatchSample),
	// snapshot-sealed and expiry-sweep trace events.
	Flight *obs.Recorder
}

// ShardedPassive partitions passive discovery across N worker-owned
// PassiveDiscoverer shards, so ingest scales with cores while the merged
// result stays byte-for-byte identical to a single-threaded run.
//
// Every packet the discoverer cares about touches state keyed by exactly
// one address — the "owner":
//
//   - a SYN-ACK (or a server-sourced UDP datagram) updates the service
//     record of its campus source;
//   - an inbound SYN updates the scan tracker of its external source;
//   - an outbound RST updates the scan tracker of its external destination.
//
// Routing each packet to hash(owner) therefore confines all mutable state
// for any address to a single shard: shard maps are disjoint by
// construction and Merge is a plain union, no conflict resolution needed.
// The one piece of cross-shard state — the scan detector's tumbling-window
// origin, which a lone discoverer picks lazily from the first scan-relevant
// packet — is seeded identically into every shard by the dispatcher
// (shard-then-merge determinism).
//
// Lifecycle: before Run, HandleBatch processes sub-batches inline on the caller's goroutine (deterministic, zero
// goroutines); after Run(ctx), sub-batches go to per-shard queues drained
// by worker goroutines that own their shard exclusively. Flush waits for
// the queues to drain; Close shuts the workers down.
//
// Snapshot is non-terminal and safe to call at any point, including while
// workers are ingesting: it freezes a consistent point-in-time Inventory
// without stopping the producer (see Snapshot). The engine also publishes
// a typed event stream — Subscribe delivers ServiceDiscovered and
// ScannerDetected events as the shards learn them.
type ShardedPassive struct {
	campus netaddr.Prefix
	shards []*passiveShard

	// scratch holds per-shard sub-batches during partitioning.
	scratch [][]packet.Packet

	// originSeeded flips once the first scan-relevant packet fixes every
	// shard's detection-window origin.
	originSeeded bool

	// events is the engine's typed discovery event stream; every shard's
	// discovery and detection hooks publish into it.
	events *eventStream

	// dispatchMu serializes batch dispatch (partition + enqueue/apply)
	// against snapshot-point insertion, so a snapshot never lands in the
	// middle of one batch's scatter across the shard queues: every batch
	// is entirely before or entirely after the snapshot point.
	dispatchMu sync.Mutex

	// snapMu serializes whole snapshots (freeze + merge) against each
	// other. Sealed shard views are patched in place at each freeze, so a
	// merge must finish reading them before the next freeze runs; holding
	// snapMu across the critical section guarantees it, because freezes
	// only ever happen on behalf of a snapshot. Hybrid.Snapshot shares
	// this lock for the same reason.
	snapMu sync.Mutex

	// onSnap, when set, observes every newly built snapshot with its
	// delta (see OnSnapshot). Guarded by snapMu.
	onSnap func(prev, inv *Inventory, delta SnapshotDelta)

	// dispatched counts batch dispatches that reached any shard. The
	// cached Inventory remembers the count it froze at; while it is
	// unchanged, Snapshot returns the cache without touching the shards
	// at all — the zero-churn fast path.
	dispatched atomic.Uint64

	// Retention (retention.go). watermark is the maximum packet timestamp
	// ever dispatched — the observation clock expiry deadlines are
	// measured against. Maintained (under dispatchMu) only while retention
	// is on, so the partition loop stays branch-cheap when it is off.
	retention   RetentionPolicy
	retentionOn bool
	watermark   time.Time

	mu       sync.RWMutex
	running  bool
	closed   bool
	ctx      context.Context
	queues   []chan shardMsg
	workers  sync.WaitGroup
	inflight sync.WaitGroup

	// batchPool recycles the worker-queue copies of dispatched sub-batches.
	batchPool sync.Pool

	// snap caches the whole Inventory while no shard changes between
	// snapshots.
	snap snapCache

	// counters: In = packets offered, Out = packets dispatched to shards.
	counters pipeline.StageCounters

	// met is the optional telemetry bundle (see SetMetrics).
	met *EngineMetrics
}

// snapCache reuses a frozen Inventory for as long as its generation
// vector is unchanged, and doubles as the base the next snapshot patches
// its deltas onto. Safe for concurrent snapshotters.
type snapCache struct {
	mu   sync.Mutex
	gens []uint64
	inv  *Inventory
	// dispatched and agen fingerprint the engine state the cache froze at
	// for the lock-free fast path: while no batch has been dispatched and
	// no report applied since, the cache is trivially current.
	dispatched uint64
	agen       uint64
}

// fast returns the cached Inventory when the engine fingerprint is
// unchanged — the zero-churn path, no shard traffic, no allocation.
func (c *snapCache) fast(dispatched, agen uint64) *Inventory {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inv != nil && c.dispatched == dispatched && c.agen == agen {
		return c.inv
	}
	return nil
}

// get returns the cached Inventory for exactly this generation vector,
// nil otherwise.
func (c *snapCache) get(gens []uint64) *Inventory {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inv == nil || len(c.gens) != len(gens) {
		return nil
	}
	for i := range gens {
		if c.gens[i] != gens[i] {
			return nil
		}
	}
	return c.inv
}

// peek returns the previous snapshot and its generation vector — the base
// for delta patching.
func (c *snapCache) peek() ([]uint64, *Inventory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gens, c.inv
}

func (c *snapCache) put(gens []uint64, inv *Inventory, dispatched, agen uint64) {
	c.mu.Lock()
	c.gens, c.inv, c.dispatched, c.agen = gens, inv, dispatched, agen
	c.mu.Unlock()
}

// invalidate drops the cached Inventory — checkpoint restore mutates
// shard state without moving the dispatch fingerprint, so any inventory
// frozen before the import must not be served after it.
func (c *snapCache) invalidate() {
	c.mu.Lock()
	c.gens, c.inv = nil, nil
	c.mu.Unlock()
}

// maxSealDeltas bounds the per-shard seal-delta history. Snapshot cadences
// that outrun it (more distinct freeze points between two merges than the
// ring holds) fall back to a full re-merge, never to a wrong one.
const maxSealDeltas = 32

// passiveShard is one worker-owned shard: the discoverer, its mutation
// generation, the cached frozen view, and the recent seal-delta history.
// All are touched only by the shard's owner — the worker goroutine while
// running, the dispatcher (under dispatchMu) inline and after shutdown.
type passiveShard struct {
	disc *PassiveDiscoverer
	// gen counts batches applied; a snapshot taken at the same gen can
	// reuse the previously frozen view untouched.
	gen  uint64
	view *shardView
	// deltas chain the recent seals (youngest last) so mergeViewsDelta can
	// patch a previous merged snapshot forward instead of rebuilding.
	deltas []sealDelta
}

// shardView is one shard's frozen point-in-time state: the sealed
// copy-on-write view of the inventory-facing maps plus the shard's scanner
// detections as of the freeze. Shard state is disjoint by owner address,
// so per-shard detection results concatenate into exactly the merged
// tracker's output.
type shardView struct {
	gen      uint64
	disc     *PassiveDiscoverer
	scanners []ScannerInfo
	// expired holds the shard's pending expiries drained at this freeze;
	// the snapshot that merges the views publishes and clears them (views
	// are cached and reused — clearing prevents double emission).
	expired []expiredSvc
}

// apply ingests one sub-batch and advances the generation.
func (sh *passiveShard) apply(batch []packet.Packet) {
	sh.disc.HandleBatch(batch)
	sh.gen++
}

// freeze returns the shard's frozen view, sealing (O(records touched
// since the last seal)) only if the shard changed since the last freeze.
// wm is the engine watermark at the snapshot point: deadlines at or before
// it expire first (generation-bumping, so the seal below picks them up).
func (sh *passiveShard) freeze(wm time.Time) *shardView {
	if sh.disc.expireDue(wm) {
		sh.gen++
	}
	if sh.view == nil || sh.view.gen != sh.gen {
		var prevGen uint64
		if sh.view != nil {
			prevGen = sh.view.gen
		}
		sealed, delta := sh.disc.sealView()
		delta.gen, delta.prevGen = sh.gen, prevGen
		sh.deltas = append(sh.deltas, delta)
		if len(sh.deltas) > maxSealDeltas {
			sh.deltas = append(sh.deltas[:0], sh.deltas[len(sh.deltas)-maxSealDeltas:]...)
		}
		sh.view = &shardView{
			gen:      sh.gen,
			disc:     sealed,
			scanners: sh.disc.DetectScanners(),
		}
	}
	// Pending expiries imply a generation change (expiry bumps it, observe-
	// side splits ride a batch), so the view holding them is always fresh.
	if exp := sh.disc.takePendingExpired(); len(exp) > 0 {
		sh.view.expired = append(sh.view.expired, exp...)
	}
	return sh.view
}

// deltasBetween collects the seal deltas spanning (fromGen, toGen],
// youngest first, by walking the prevGen chain. ok is false when the
// chain cannot be reconstructed — history evicted, or a full (untracked)
// seal in the span — in which case the caller must re-merge from scratch.
func (sh *passiveShard) deltasBetween(fromGen, toGen uint64) (out []sealDelta, ok bool) {
	want := toGen
	for i := len(sh.deltas) - 1; i >= 0; i-- {
		if want == fromGen {
			return out, true
		}
		d := sh.deltas[i]
		if d.gen != want {
			continue
		}
		if d.full {
			return nil, false
		}
		out = append(out, d)
		want = d.prevGen
	}
	return out, want == fromGen
}

// shardMsg is one entry of a shard queue: a sub-batch to apply (batch
// points into a pooled buffer the worker recycles), a snapshot marker to
// answer, or a checkpoint-export request (exactly one field is set).
// Markers flow through the same queue as batches, so both snapshot and
// export points always fall at whole-batch boundaries of the producer's
// stream.
type shardMsg struct {
	batch *[]packet.Packet
	snap  chan<- *shardView
	ckpt  *shardExportReq
	// wm carries the engine watermark captured at the snapshot point
	// (snap markers only).
	wm time.Time
}

// NewShardedPassive builds a discoverer sharded n ways (n < 1 is treated
// as 1). campus and udpPorts are as in NewPassiveDiscoverer.
func NewShardedPassive(campus netaddr.Prefix, udpPorts []uint16, n int) *ShardedPassive {
	if n < 1 {
		n = 1
	}
	s := &ShardedPassive{
		campus:  campus,
		shards:  make([]*passiveShard, n),
		scratch: make([][]packet.Packet, n),
		events:  newEventStream(),
	}
	for i := range s.shards {
		d := NewPassiveDiscoverer(campus, udpPorts)
		d.onService = s.events.passiveDiscovered
		d.onRetire = s.events.retirePassive
		d.track.onDetect = s.events.scannerDetected
		s.shards[i] = &passiveShard{disc: d}
	}
	return s
}

// SetRetention configures TTL expiry, seeding deadlines for anything the
// shards already hold (so it composes with checkpoint restore in either
// order). Call before Run and before ingest begins.
func (s *ShardedPassive) SetRetention(p RetentionPolicy) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	s.retention = p
	s.retentionOn = p.Enabled()
	for _, sh := range s.shards {
		sh.disc.setRetention(p.PassiveTTL)
	}
}

// NumShards returns the shard count.
func (s *ShardedPassive) NumShards() int { return len(s.shards) }

// Counters exposes ingest counters (safe for concurrent readers).
func (s *ShardedPassive) Counters() *pipeline.StageCounters { return &s.counters }

// EventCounters exposes the event stream's flow counters (published /
// delivered / dropped), safe for concurrent readers.
func (s *ShardedPassive) EventCounters() *pipeline.StageCounters { return s.events.hub.Counters() }

// Subscribe attaches a bounded subscriber to the engine's discovery event
// stream (buffer capacity buf). Events that do not fit the buffer are
// dropped for that subscriber and counted — a slow consumer loses events,
// it never stalls ingest. The channel closes when the engine closes or the
// subscription is cancelled.
func (s *ShardedPassive) Subscribe(buf int) *EventSub { return s.events.hub.Subscribe(buf) }

// SubscribeFiltered is Subscribe with a predicate pushed down into the
// hub's publish path: events keep rejects are never delivered and never
// consume the subscriber's drop budget, so a consumer watching one port
// does not pay for the whole stream. keep runs on publishing goroutines —
// it must be fast and safe for concurrent calls.
func (s *ShardedPassive) SubscribeFiltered(buf int, keep func(Event) bool) *EventSub {
	return s.events.hub.SubscribeFunc(buf, keep)
}

// ownerAddr returns the address whose state the packet would mutate; for
// packets the discoverer ignores it falls back to the source, which keeps
// routing deterministic without affecting results.
func (s *ShardedPassive) ownerAddr(p *packet.Packet) netaddr.V4 {
	// Mirrors the case order of PassiveDiscoverer.handleTCP exactly.
	if p.Has(packet.LayerTypeTCP) {
		fl := p.TCP.Flags
		switch {
		case fl.Has(packet.FlagSYN | packet.FlagACK):
			return p.IPv4.Src // service record of the campus source
		case fl.Has(packet.FlagSYN):
			return p.IPv4.Src // scan state of the external source
		case fl.Has(packet.FlagRST):
			return p.IPv4.Dst // scan state of the external destination
		}
	}
	return p.IPv4.Src // UDP service records key on the source too
}

// scanRelevant mirrors PassiveDiscoverer.handleTCP's tracker-touching
// cases: the first such packet in the stream fixes the detection-window
// origin.
func (s *ShardedPassive) scanRelevant(p *packet.Packet) bool {
	if !p.Has(packet.LayerTypeTCP) {
		return false
	}
	fl := p.TCP.Flags
	srcIn := s.campus.Contains(p.IPv4.Src)
	dstIn := s.campus.Contains(p.IPv4.Dst)
	switch {
	case fl.Has(packet.FlagSYN | packet.FlagACK):
		return false
	case fl.Has(packet.FlagSYN):
		return dstIn && !srcIn
	case fl.Has(packet.FlagRST):
		return srcIn && !dstIn
	}
	return false
}

// shardOf hashes the owner address to a shard.
func (s *ShardedPassive) shardOf(addr netaddr.V4) int {
	h := uint32(addr)
	h ^= h >> 16
	h *= 0x7FEB352D
	h ^= h >> 15
	h *= 0x846CA68B
	h ^= h >> 16
	return int(h % uint32(len(s.shards)))
}

// SetMetrics attaches the telemetry bundle. Call before any traffic or
// snapshots flow (it is read without synchronization on the hot paths);
// nil detaches. Typically wired by the facade, not called directly.
func (s *ShardedPassive) SetMetrics(m *EngineMetrics) { s.met = m }

// seedOrigins pins every shard's scan-window origin to t.
func (s *ShardedPassive) seedOrigins(t time.Time) {
	for _, sh := range s.shards {
		sh.disc.seedScanOrigin(t)
	}
	s.originSeeded = true
}

// HandleBatch implements pipeline.BatchSink. Partitioning runs on the
// caller's goroutine; shard processing runs inline (before Run) or on the
// shard's worker (after Run). A single producer at a time; Snapshot (and
// only Snapshot) may run concurrently with the producer.
func (s *ShardedPassive) HandleBatch(batch []packet.Packet) {
	if len(batch) == 0 {
		return
	}
	s.counters.AddIn(len(batch))
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}

	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	for i := range s.scratch {
		s.scratch[i] = s.scratch[i][:0]
	}
	for i := range batch {
		p := &batch[i]
		if !s.originSeeded && s.scanRelevant(p) {
			s.seedOrigins(p.Timestamp)
		}
		if s.retentionOn && p.Timestamp.After(s.watermark) {
			s.watermark = p.Timestamp
		}
		idx := s.shardOf(s.ownerAddr(p))
		s.scratch[idx] = append(s.scratch[idx], *p)
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.counters.AddDropped(len(batch))
		return
	}
	d := s.dispatched.Add(1)
	for idx, sub := range s.scratch {
		if len(sub) == 0 {
			continue
		}
		s.counters.AddOut(len(sub))
		if !s.running {
			s.shards[idx].apply(sub)
			continue
		}
		cp := s.getBatchBuf(len(sub))
		copy(*cp, sub)
		s.inflight.Add(1)
		s.queues[idx] <- shardMsg{batch: cp}
	}
	if m := s.met; m != nil {
		m.Dispatch.Observe(time.Since(t0))
		if d%obs.BatchSample == 0 {
			m.Flight.Record(obs.TraceBatchDispatched, "", int64(len(batch)), int64(d))
		}
	}
}

// getBatchBuf takes a sub-batch copy buffer from the pool (workers return
// theirs after applying), trimming ingest-path allocations to the rare
// capacity misses. The pool holds pointers so Put never boxes a header.
func (s *ShardedPassive) getBatchBuf(n int) *[]packet.Packet {
	if v := s.batchPool.Get(); v != nil {
		if bp := v.(*[]packet.Packet); cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	buf := make([]packet.Packet, n, max(n, pipeline.DefaultBatchSize))
	return &buf
}

// Run starts one worker goroutine per shard. The context is an abort
// lever, not a graceful stop: after cancellation, queued sub-batches are
// drained without being applied (so Flush and Close never deadlock), and
// because each worker observes cancellation independently the shard state
// no longer corresponds to any prefix of the input — treat the run as
// abandoned and discard its results. For a clean shutdown, stop producing
// and call Close. No-op when already running or closed.
func (s *ShardedPassive) Run(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running || s.closed {
		return
	}
	s.running = true
	s.ctx = ctx
	s.queues = make([]chan shardMsg, len(s.shards))
	for i := range s.shards {
		q := make(chan shardMsg, 64)
		s.queues[i] = q
		sh := s.shards[i]
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for msg := range q {
				if msg.snap != nil {
					// Snapshot marker: everything enqueued before it has
					// been applied, so the frozen view is exactly the
					// shard's state at the marker's dispatch point.
					msg.snap <- sh.freeze(msg.wm)
					continue
				}
				if msg.ckpt != nil {
					// Checkpoint-export marker: same boundary guarantee as
					// a snapshot marker; the copy-out runs on the worker,
					// so live-only state (peers, tracker) is read race-free.
					msg.ckpt.out <- sh.exportState(msg.ckpt)
					continue
				}
				if s.ctx.Err() == nil {
					if m := s.met; m != nil {
						t := time.Now()
						sh.apply(*msg.batch)
						m.Apply.Observe(time.Since(t))
					} else {
						sh.apply(*msg.batch)
					}
				}
				s.batchPool.Put(msg.batch)
				s.inflight.Done()
			}
		}()
	}
}

// Flush blocks until every sub-batch enqueued before the call has been
// applied to its shard. Synchronous mode: no-op. Flush must not race with
// a concurrent producer (Snapshot needs no Flush and has no such
// restriction).
func (s *ShardedPassive) Flush() { s.inflight.Wait() }

// Close flushes and stops the workers, then closes the event stream (so
// subscriber channels end); idempotent. After Close the discoverer is
// read-only: further HandleBatch calls are dropped, Snapshot keeps
// working.
func (s *ShardedPassive) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	running, queues := s.running, s.queues
	s.mu.Unlock()
	if running {
		for _, q := range queues {
			close(q)
		}
		s.workers.Wait()
	}
	s.events.close()
}

// Merge unions the shards into a single PassiveDiscoverer equivalent to
// one that consumed the whole stream sequentially. Shard state is keyed by
// owner address, so the union has no conflicts. The merged discoverer
// shares record structures with the shards — treat it as a view and do not
// feed more traffic into either side; for a stable result that tolerates
// further ingest, use Snapshot. Merge flushes pending work first (callers
// must stop producing before merging).
func (s *ShardedPassive) Merge() *PassiveDiscoverer {
	s.Flush()
	m := NewPassiveDiscoverer(s.campus, nil)
	m.udpPorts = s.shards[0].disc.udpPorts
	for _, sh := range s.shards {
		d := sh.disc
		m.Packets += d.Packets
		for k, rec := range d.services {
			m.services[k] = rec
		}
		for a, ts := range d.addrTimes {
			m.addrTimes[a] = ts
		}
		for k, at := range d.tombs {
			m.tombs[k] = at
		}
		m.track.mergeFrom(d.track)
	}
	return m
}

// snapshotViews captures every shard's frozen view at one consistent
// point, plus the dispatch count at that point (the cache fingerprint).
// While workers run, a snapshot marker is enqueued on every shard queue
// under the dispatch lock — atomically with respect to batch scatter, so
// the snapshot point falls exactly between two whole batches of the
// producer's stream; each worker freezes after applying everything
// enqueued before its marker. Inline (or after Close) the freeze happens
// directly under the dispatch lock. Unchanged shards reuse their cached
// frozen view; changed shards seal in O(churn). Callers must hold snapMu.
func (s *ShardedPassive) snapshotViews() ([]*shardView, uint64, time.Time) {
	s.dispatchMu.Lock()
	d0 := s.dispatched.Load()
	wm := s.watermark
	s.mu.RLock()
	if s.running && !s.closed {
		chans := make([]chan *shardView, len(s.shards))
		for i := range s.shards {
			ch := make(chan *shardView, 1)
			chans[i] = ch
			s.queues[i] <- shardMsg{snap: ch, wm: wm}
		}
		s.mu.RUnlock()
		s.dispatchMu.Unlock()
		views := make([]*shardView, len(chans))
		for i, ch := range chans {
			views[i] = <-ch
		}
		return views, d0, wm
	}
	s.mu.RUnlock()
	// Inline, or shut down. If workers ever ran, wait for their exit so
	// their final writes are visible here (Close already waits; this
	// covers snapshots racing Close).
	s.workers.Wait()
	views := make([]*shardView, len(s.shards))
	for i, sh := range s.shards {
		views[i] = sh.freeze(wm)
	}
	s.dispatchMu.Unlock()
	return views, d0, wm
}

// mergeViewsFull unions frozen shard views into one merged store plus the
// combined scanner list (shard detections are disjoint by source, so
// concatenation + sort reproduces the merged tracker's output) — the
// from-scratch merge path, built through persistent-map transients.
func (s *ShardedPassive) mergeViewsFull(views []*shardView) (*mergedStore, []ScannerInfo) {
	m := newMergedStore()
	sb := m.services.builder()
	tb := m.trails.builder()
	ob := m.tombs.builder()
	var scanners []ScannerInfo
	for _, v := range views {
		m.packets += v.disc.Packets
		for k, rec := range v.disc.services {
			sb.Set(k, rec)
		}
		for a, ts := range v.disc.addrTimes {
			tb.Set(a, ts)
		}
		for k, at := range v.disc.tombs {
			ob.Set(k, at)
		}
		scanners = append(scanners, v.scanners...)
	}
	m.services, m.trails, m.tombs = sb.freeze(), tb.freeze(), ob.freeze()
	sort.Slice(scanners, func(i, j int) bool { return scanners[i].Source < scanners[j].Source })
	return m, scanners
}

// mergeViewsDelta derives the merged store for views by patching the
// previous merged snapshot (prevInv, frozen at prevGens) with only the
// records, trails and tombstones the changed shards touched in between:
// persistent-map path copies for exactly the touched entries, zero
// full-map clones, no re-sort of untouched state. Each touched key is
// resolved against the shard's FINAL sealed state, so the patch is
// insensitive to the order (and interleaving) of the deltas within a span
// — a key that expired and was reborn lands on its final record, a key
// that expired for good is deleted with its tombstone. newKeys returns
// the services that appeared or were reborn since prev, updKeys those
// whose record was touched but persisted (re-observations — LastSeen,
// flows or client counts moved), and delKeys those that left (all three
// sorted, mutually disjoint). ok is false when the previous snapshot is
// not persistent-map backed or a shard's delta chain cannot be
// reconstructed; callers then fall back to mergeViewsFull.
func (s *ShardedPassive) mergeViewsDelta(views []*shardView, prevInv *Inventory, prevGens []uint64) (m *mergedStore, scanners []ScannerInfo, newKeys, updKeys, delKeys []ServiceKey, ok bool) {
	if prevInv == nil || len(prevGens) != len(views) {
		return nil, nil, nil, nil, nil, false
	}
	prev, isMerged := prevInv.d.(*mergedStore)
	if !isMerged {
		return nil, nil, nil, nil, nil, false
	}
	type span struct {
		shard  int
		deltas []sealDelta
	}
	var spans []span
	for i, v := range views {
		if v.gen == prevGens[i] {
			continue
		}
		ds, ok := s.shards[i].deltasBetween(prevGens[i], v.gen)
		if !ok {
			return nil, nil, nil, nil, nil, false
		}
		spans = append(spans, span{shard: i, deltas: ds})
	}

	m = &mergedStore{}
	sb := prev.services.builder()
	tb := prev.trails.builder()
	ob := prev.tombs.builder()
	for _, v := range views {
		m.packets += v.disc.Packets
		scanners = append(scanners, v.scanners...)
	}
	sort.Slice(scanners, func(i, j int) bool { return scanners[i].Source < scanners[j].Source })
	for _, sp := range spans {
		sealed := views[sp.shard].disc
		touched := make(map[ServiceKey]bool)
		reborn := make(map[ServiceKey]bool)
		addrs := make(map[netaddr.V4]bool)
		for _, d := range sp.deltas {
			for _, k := range d.keys {
				touched[k] = true
			}
			for _, k := range d.newKeys {
				touched[k] = true
				reborn[k] = true
			}
			for _, k := range d.delKeys {
				touched[k] = true
			}
			for _, a := range d.addrs {
				addrs[a] = true
			}
		}
		for k := range touched {
			_, was := prev.services.Get(k)
			if rec, live := sealed.services[k]; live {
				sb.Set(k, rec)
				if !was || reborn[k] {
					newKeys = append(newKeys, k)
				} else {
					updKeys = append(updKeys, k)
				}
			} else {
				sb.Delete(k)
				if was {
					delKeys = append(delKeys, k)
				}
			}
			if at, tombed := sealed.tombs[k]; tombed {
				ob.Set(k, at)
			}
		}
		for a := range addrs {
			tb.Set(a, sealed.addrTimes[a])
		}
	}
	m.services, m.trails, m.tombs = sb.freeze(), tb.freeze(), ob.freeze()
	sort.Slice(newKeys, func(i, j int) bool { return newKeys[i].Before(newKeys[j]) })
	sort.Slice(updKeys, func(i, j int) bool { return updKeys[i].Before(updKeys[j]) })
	sort.Slice(delKeys, func(i, j int) bool { return delKeys[i].Before(delKeys[j]) })
	return m, scanners, newKeys, updKeys, delKeys, true
}

// mergeSortedKeys unions a sorted key slice with sorted additions,
// deduplicating equal keys (a reborn service is "new" for provenance
// purposes but already listed). With no additions the original is
// returned as-is (it is immutable — shared between inventories).
func mergeSortedKeys(keys, add []ServiceKey) []ServiceKey {
	if len(add) == 0 {
		return keys
	}
	out := make([]ServiceKey, 0, len(keys)+len(add))
	i, j := 0, 0
	for i < len(keys) && j < len(add) {
		switch {
		case keys[i].Before(add[j]):
			out = append(out, keys[i])
			i++
		case add[j].Before(keys[i]):
			out = append(out, add[j])
			j++
		default:
			out = append(out, keys[i])
			i++
			j++
		}
	}
	out = append(out, keys[i:]...)
	out = append(out, add[j:]...)
	return out
}

// removeSortedKeys filters sorted deletions out of a sorted key slice.
// With no deletions the original is returned as-is.
func removeSortedKeys(keys, del []ServiceKey) []ServiceKey {
	if len(del) == 0 {
		return keys
	}
	out := make([]ServiceKey, 0, len(keys))
	j := 0
	for _, k := range keys {
		for j < len(del) && del[j].Before(k) {
			j++
		}
		if j < len(del) && del[j] == k {
			continue
		}
		out = append(out, k)
	}
	return out
}

// collectExpired drains the pending expiry notices off a view set. The
// views retain no reference afterwards, so a cached view reused by a later
// snapshot cannot re-emit them.
func collectExpired(views []*shardView) []expiredSvc {
	var out []expiredSvc
	for _, v := range views {
		if len(v.expired) > 0 {
			out = append(out, v.expired...)
			v.expired = nil
		}
	}
	return out
}

// viewGens extracts the generation vector of a view set.
func viewGens(views []*shardView) []uint64 {
	gens := make([]uint64, len(views))
	for i, v := range views {
		gens[i] = v.gen
	}
	return gens
}

// SnapshotDelta describes how one published snapshot differs from its
// predecessor — the O(churn) changed-key sets a snapshot observer needs
// to patch derived state (secondary indexes, caches) forward without
// rescanning the inventory. Added, Updated and Removed are sorted in
// canonical key order and mutually disjoint; a reborn service (expired
// and re-observed within one span) is Added, an expired key that
// survives on active evidence is Updated (its provenance downgraded).
// Full set means no delta could be derived (first snapshot, cache
// lineage break, or an active-side change that reclassifies everything)
// — consumers must rebuild from the new inventory.
type SnapshotDelta struct {
	Added   []ServiceKey
	Updated []ServiceKey
	Removed []ServiceKey
	Full    bool
}

// OnSnapshot registers fn to observe every newly built snapshot: it runs
// under the snapshot lock, after the new inventory is cached, with the
// previous inventory (nil on the first), the new one, and the delta
// between them. Cache hits (snapshots of an unchanged engine) do not
// invoke it. Because fn blocks the snapshot path, it must be fast —
// O(delta) work, no waiting on queries. At most one observer; nil clears.
func (s *ShardedPassive) OnSnapshot(fn func(prev, inv *Inventory, delta SnapshotDelta)) {
	s.snapMu.Lock()
	s.onSnap = fn
	s.snapMu.Unlock()
}

// Snapshot freezes a consistent point-in-time Inventory. It is
// non-terminal and cheap to repeat: with nothing dispatched since the
// previous snapshot the cached Inventory is returned outright (no shard
// traffic, no allocation); otherwise unchanged shards reuse their
// previously frozen views, changed shards seal only the records touched
// since their last freeze, and the merged inventory is patched forward
// from the previous snapshot rather than rebuilt. On a running engine the
// snapshot point is a batch boundary of the producer's stream (everything
// dispatched before the call is included), and the result is
// byte-identical to pausing the producer, flushing, and snapshotting at
// that point. Safe to call from any goroutine at any lifecycle stage.
func (s *ShardedPassive) Snapshot() *Inventory {
	if inv := s.snap.fast(s.dispatched.Load(), 0); inv != nil {
		return inv
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	views, d0, _ := s.snapshotViews()
	if exp := collectExpired(views); len(exp) > 0 {
		sortExpired(exp)
		for _, e := range exp {
			s.events.serviceExpired(e.key, e.at, e.prov, e.clear)
		}
		if m := s.met; m != nil {
			m.Flight.Record(obs.TraceExpirySweep, "", int64(len(exp)), 0)
		}
	}
	gens := viewGens(views)
	if inv := s.snap.get(gens); inv != nil {
		return inv
	}
	prevGens, prevInv := s.snap.peek()
	var inv *Inventory
	delta := SnapshotDelta{Full: true}
	if prevInv != nil {
		if m, scanners, newKeys, updKeys, delKeys, ok := s.mergeViewsDelta(views, prevInv, prevGens); ok {
			inv = &Inventory{d: m, keys: removeSortedKeys(mergeSortedKeys(prevInv.keys, newKeys), delKeys), scanners: scanners}
			delta = SnapshotDelta{Added: newKeys, Updated: updKeys, Removed: delKeys}
		}
	}
	if inv == nil {
		merged, scanners := s.mergeViewsFull(views)
		inv = newFrozenInventory(merged, scanners)
	}
	s.snap.put(gens, inv, d0, 0)
	if s.onSnap != nil {
		s.onSnap(prevInv, inv, delta)
	}
	if m := s.met; m != nil {
		el := time.Since(t0)
		m.Snapshot.Observe(el)
		m.Flight.Record(obs.TraceSnapshotSealed, "", int64(inv.Len()), el.Microseconds())
	}
	return inv
}

var (
	_ pipeline.BatchSink = (*ShardedPassive)(nil)
)
