package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/query"
)

// durations is a latency sample set.
type durations []time.Duration

// pct returns the nearest-rank p-quantile (0 < p <= 1) of the samples.
func (d durations) pct(p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ledger is the one place the benchmark counts attempted and failed
// operations, by category: the result line's attempted/failed totals and
// the per-category breakdown both come from it.
type ledger struct {
	mu     sync.Mutex
	att    map[string]uint64
	fail   map[string]uint64
	errors []string
}

func newLedger() *ledger {
	return &ledger{att: map[string]uint64{}, fail: map[string]uint64{}}
}

func (l *ledger) add(what string, attempted, failed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.att[what] += attempted
	l.fail[what] += failed
}

// check records one reference check; a failed one keeps its reason.
func (l *ledger) check(what string, ok bool, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.att[what]++
	if !ok {
		l.fail[what]++
		if len(l.errors) < 20 {
			l.errors = append(l.errors, what+": "+fmt.Sprintf(format, args...))
		}
	}
}

func (l *ledger) totals() (attempted, failed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, a := range l.att {
		attempted += a
		failed += l.fail[k]
	}
	return attempted, failed
}

// span is one traced call: name, wall interval relative to the tracer's
// origin, the enclosing span, and the batch or round it belongs to.
type span struct {
	Name   string `json:"name"`
	Group  uint64 `json:"group"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStat aggregates every span of one name: count, total time, and self
// time (total minus the time its child spans cover).
type spanStat struct {
	N     int           `json:"n"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// tracer records spans in memory on the driving goroutine. A nil tracer
// records nothing, which is how untraced runs stay untraced. Spans nest
// by call order; the stack gives each span its parent.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	stats map[string]*spanStat
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stats: map[string]*spanStat{}}
}

func (t *tracer) begin(name string, group uint64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent,
		Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// fold adds the recorded spans to the per-name statistics and keeps the
// spans themselves only for the last iteration, which is what write
// emits; iterations run back to back, so the kept list stays bounded.
func (t *tracer) fold() {
	if t == nil {
		return
	}
	child := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += time.Duration(t.spans[i].End - t.spans[i].Start)
		}
	}
	for i, s := range t.spans {
		st := t.stats[s.Name]
		if st == nil {
			st = &spanStat{}
			t.stats[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.N++
		st.Total += d
		st.Self += d - child[i]
	}
}

func (t *tracer) reset() {
	if t != nil {
		t.spans = t.spans[:0]
		t.stack = t.stack[:0]
	}
}

// write stores the span statistics and the last iteration's spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"stats": t.stats, "last_iteration": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// histMark remembers a histogram's count and sum so the change over a
// phase can be read back: the layers record into these on their own
// goroutines, and the benchmark only reads them.
type histMark struct {
	h   *obs.Histogram
	n   uint64
	sum time.Duration
}

func mark(h *obs.Histogram) histMark { return histMark{h: h, n: h.Count(), sum: h.Sum()} }

func (m histMark) delta() (uint64, time.Duration) {
	return m.h.Count() - m.n, m.h.Sum() - m.sum
}

// histTotal accumulates histogram deltas over several timed phases.
type histTotal struct {
	n   uint64
	sum time.Duration
}

func (t *histTotal) add(m histMark) {
	n, s := m.delta()
	t.n += n
	t.sum += s
}

// runtimeMark samples the Go runtime's allocation count and GC CPU time.
type runtimeMark struct {
	mallocs     uint64
	gcCPU, allC float64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func markRuntime() runtimeMark {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	var m runtimeMark
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.allC = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		m.mallocs = s[2].Value.Uint64()
	}
	return m
}

// runtimeTotal accumulates runtime deltas over several timed phases.
type runtimeTotal struct {
	mallocs     uint64
	gcCPU, allC float64
}

func (t *runtimeTotal) add(from runtimeMark) {
	to := markRuntime()
	t.mallocs += to.mallocs - from.mallocs
	t.gcCPU += to.gcCPU - from.gcCPU
	t.allC += to.allC - from.allC
}

func (t *runtimeTotal) gcFraction() float64 {
	if t.allC <= 0 {
		return 0
	}
	return t.gcCPU / t.allC
}

// liveHeapMB forces a collection and reports the live heap. Callers keep
// the state they want counted reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// keyPool is an append-only set of service keys readers sample from while
// one writer grows it.
type keyPool struct {
	p    atomic.Pointer[[]core.ServiceKey]
	keys []core.ServiceKey // writer's copy
}

func (kp *keyPool) set(keys []core.ServiceKey) {
	kp.keys = keys
	kp.p.Store(&keys)
}

func (kp *keyPool) push(k core.ServiceKey) {
	kp.keys = append(kp.keys, k)
	s := kp.keys
	kp.p.Store(&s)
}

func (kp *keyPool) pick(rng *rand.Rand) (core.ServiceKey, bool) {
	p := kp.p.Load()
	if p == nil || len(*p) == 0 {
		return core.ServiceKey{}, false
	}
	return (*p)[rng.IntN(len(*p))], true
}

// pointQuery is the typed point lookup of one service key.
func pointQuery(k core.ServiceKey) query.Query {
	pfx, _ := netaddr.NewPrefix(k.Addr, 32)
	return query.Query{Prefix: pfx, Port: k.Port, Proto: k.Proto, Limit: 1}
}

func hit(res query.Result, k core.ServiceKey) bool {
	return len(res.Hits) == 1 && res.Hits[0].Key == k
}

// queryFunc is the query entry point a load generator drives:
// Pipeline.Query or Aggregator.Query.
type queryFunc func(query.Query) (query.Result, error)

// queryPorts and queryCategories drive the non-point part of the mix.
var (
	queryPorts      = []uint16{80, 22, 443, 21, 3306, 25}
	queryCategories = []query.Category{query.CatWeb, query.CatSSH, query.CatFTP, query.CatDB}
)

// queryMix is the fixed request mix of every open-loop reader, by request
// number modulo 20: 10 point lookups of services already due to be
// visible, 4 port queries, 3 /24 queries and 3 category queries. The
// listing queries read two pages of 100.
func queryMix(n int) string {
	switch m := n % 20; {
	case m < 10:
		return "point"
	case m < 14:
		return "port"
	case m < 17:
		return "prefix24"
	default:
		return "category"
	}
}

// loadgen is one open-loop reader: request n is due at start + n/rate
// whatever happened to earlier requests, and its latency is measured from
// that due time, so a stall shows up in every request it delays.
type loadgen struct {
	rate float64
	q    queryFunc
	pool *keyPool
	rng  *rand.Rand

	lat, svc, late durations
	attempted      uint64
	errs, misses   uint64
	points, hits   uint64
}

func newLoadgen(rate float64, q queryFunc, pool *keyPool, seed uint64) *loadgen {
	return &loadgen{rate: rate, q: q, pool: pool, rng: rand.New(rand.NewPCG(seed, 0x10AD))}
}

// run issues requests until stop closes.
func (g *loadgen) run(stop <-chan struct{}) {
	period := time.Duration(float64(time.Second) / g.rate)
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * period)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		t0 := time.Now()
		g.one(n)
		t1 := time.Now()
		g.lat = append(g.lat, t1.Sub(due))
		g.svc = append(g.svc, t1.Sub(t0))
		g.late = append(g.late, t0.Sub(due))
	}
}

func (g *loadgen) one(n int) {
	g.attempted++
	kind := queryMix(n)
	anchor, ok := g.pool.pick(g.rng)
	if !ok {
		// Nothing visible yet: list the busiest port instead.
		kind, anchor = "port", core.ServiceKey{Port: 80}
	}
	var q query.Query
	switch kind {
	case "point":
		g.points++
		res, err := g.q(pointQuery(anchor))
		if err != nil {
			g.errs++
		} else if hit(res, anchor) {
			g.hits++
		} else {
			g.misses++
		}
		return
	case "port":
		q = query.Query{Port: queryPorts[g.rng.IntN(len(queryPorts))]}
	case "prefix24":
		q.Prefix, _ = netaddr.NewPrefix(anchor.Addr, 24)
	case "category":
		q = query.Query{Category: queryCategories[g.rng.IntN(len(queryCategories))]}
	}
	q.Limit = 100
	res, err := g.q(q)
	if err == nil && res.NextPageToken != "" {
		q.PageToken = res.NextPageToken
		_, err = g.q(q)
	}
	if err != nil {
		g.errs++
	}
}

// account books the reader's requests into the ledger: errors and point
// lookups that missed a service already due to be visible are failures.
func (g *loadgen) account(l *ledger, what string) {
	l.add(what, g.attempted, g.errs+g.misses)
}

// startLoadgens runs the readers on their own goroutines until the
// returned stop function is called; stop waits for them to end.
func startLoadgens(gens ...*loadgen) (stop func()) {
	ch := make(chan struct{})
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.run(ch)
		}()
	}
	return func() {
		close(ch)
		wg.Wait()
		// The samples outlive the run; the site they queried must not.
		for _, g := range gens {
			g.q, g.pool = nil, nil
		}
	}
}
