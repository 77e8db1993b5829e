package report

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"decvec/internal/dva"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/workload"
)

// collectMetrics builds the Metrics value of a result, the reflection-based
// oracle AppendMetricsJSON is held to: json.MarshalIndent of this value is
// the document's reference encoding.
func collectMetrics(res *sim.Result, cache *simcache.Stats) *Metrics {
	m := &Metrics{
		Arch:          res.Arch,
		Config:        res.Config.String(),
		Cycles:        res.Cycles,
		IPC:           res.IPC(),
		ScalarInsts:   res.Counts.ScalarInsts,
		VectorInsts:   res.Counts.VectorInsts,
		VectorOps:     res.Counts.VectorOps,
		LoadElems:     res.Traffic.LoadElems,
		StoreElems:    res.Traffic.StoreElems,
		Bypasses:      res.Bypasses,
		BypassedElems: res.BypassedElems,
		Flushes:       res.Flushes,
	}
	for s := sim.State(0); s < sim.NumStates; s++ {
		m.States = append(m.States, StateMetric{
			State:    s.String(),
			Cycles:   res.States.Cycles[s],
			Fraction: res.States.Fraction(s),
		})
	}
	for _, sc := range res.Stalls.Nonzero() {
		m.Stalls = append(m.Stalls, StallMetric{
			Reason: sc.Reason.String(),
			Proc:   sc.Reason.Proc().String(),
			Cycles: sc.Cycles,
		})
	}
	for p := sim.Proc(0); p < sim.NumProcs; p++ {
		if t := res.Stalls.ProcTotal(p); t > 0 {
			m.ProcStalls = append(m.ProcStalls, ProcStallMetric{Proc: p.String(), Cycles: t})
		}
	}
	for _, q := range res.Queues {
		m.Queues = append(m.Queues, QueueMetric{
			Name:       q.Name,
			Cap:        q.Cap,
			Pushes:     q.Pushes,
			Pops:       q.Pops,
			Peak:       q.Peak,
			MeanLen:    q.MeanLen,
			Pressure:   q.Pressure(),
			FullCycles: q.FullCycles,
		})
	}
	if cache != nil {
		m.Cache = CacheMetricOf(*cache)
	}
	return m
}

// checkOracle appends the document of res behind a prefix and compares it
// with json.MarshalIndent of the oracle, bytes and error alike. On error
// the buffer must come back as it went in.
func checkOracle(t *testing.T, name string, res *sim.Result, cache *simcache.Stats) {
	t.Helper()
	want, werr := json.MarshalIndent(collectMetrics(res, cache), "", "  ")
	prefix := []byte("prefix:")
	got, gerr := AppendMetricsJSON(prefix, res, cache)
	if werr != nil {
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%s: error %v, encoding/json %v", name, gerr, werr)
		}
		if string(got) != "prefix:" {
			t.Errorf("%s: failed append left %q, want the prefix alone", name, got)
		}
		return
	}
	if gerr != nil {
		t.Fatalf("%s: %v, encoding/json succeeded", name, gerr)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("%s: AppendMetricsJSON differs from encoding/json\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// runCell simulates a program on REF, DVA or BYP at trace scale 1.
func runCell(tb testing.TB, p *workload.Program, arch string, latency int64) *sim.Result {
	tb.Helper()
	cfg := sim.DefaultConfig(latency)
	var res *sim.Result
	var err error
	if arch == "REF" {
		res, err = ref.Run(p.CachedTrace(1), cfg)
	} else {
		cfg.Bypass = arch == "BYP"
		res, err = dva.Run(p.CachedTrace(1), cfg)
	}
	if err != nil {
		tb.Fatalf("%s %s L=%d: %v", p.Name, arch, latency, err)
	}
	return res
}

// TestAppendMetricsJSONMatchesEncodingJSON holds the encoder to the oracle
// on every simulated program, architecture and three latencies, with and
// without cache counters, and on hand-built results that reach the corners
// of encoding/json: empty runs, exponent-form floats, NaN and ±Inf, stall
// ties, and names that need escaping.
func TestAppendMetricsJSONMatchesEncodingJSON(t *testing.T) {
	cache := &simcache.Stats{Hits: 3, Misses: 1, Corrupt: 0, Evicted: 2, Writes: 1, Verified: 5, Orphans: 7}
	for _, p := range workload.Simulated() {
		for _, arch := range []string{"REF", "DVA", "BYP"} {
			for _, lat := range []int64{1, 50, 200} {
				res := runCell(t, p, arch, lat)
				checkOracle(t, p.Name+" "+res.Config.String(), res, nil)
				checkOracle(t, p.Name+" "+res.Config.String()+" cached", res, cache)
			}
		}
	}

	edge := func(mod func(r *sim.Result)) *sim.Result {
		r := tableResult()
		mod(r)
		return r
	}
	cases := []struct {
		name string
		res  *sim.Result
	}{
		{"zero cycles", &sim.Result{Arch: "REF"}},
		{"no stalls", edge(func(r *sim.Result) { r.Stalls = sim.StallCounts{} })},
		{"empty queue list", edge(func(r *sim.Result) { r.Queues = []sim.QueueStat{} })},
		{"fractions below 1e-6", edge(func(r *sim.Result) {
			r.States.Cycles[0], r.States.Cycles[1], r.States.Cycles[sim.NumStates-1] = 1, 20, 39_999_979
		})},
		{"values from 1e21 on", edge(func(r *sim.Result) {
			r.Queues[0].MeanLen, r.Queues[1].MeanLen = 1e21, -3.5e300
		})},
		{"tiny negative value", edge(func(r *sim.Result) { r.Queues[0].MeanLen = -4e-9 })},
		{"denormal", edge(func(r *sim.Result) { r.Queues[0].MeanLen = 5e-324 })},
		{"NaN", edge(func(r *sim.Result) { r.Queues[1].MeanLen = math.NaN() })},
		{"+Inf", edge(func(r *sim.Result) { r.Queues[1].MeanLen = math.Inf(1) })},
		{"-Inf before NaN", edge(func(r *sim.Result) {
			r.Queues[0].MeanLen, r.Queues[1].MeanLen = math.Inf(-1), math.NaN()
		})},
		{"stall ties and a negative count", edge(func(r *sim.Result) {
			r.Stalls = sim.StallCounts{}
			r.Stalls.Add(sim.StallVPData, 7)
			r.Stalls.Add(sim.StallAPBus, 7)
			r.Stalls.Add(sim.StallSPData, 9)
			r.Stalls[sim.StallAPBus+1] = -3
		})},
		{"names to escape", edge(func(r *sim.Result) {
			r.Arch = "\"DVA\"\t\\"
			r.Queues[0].Name = "<A&V>  \xffDQ\x01"
		})},
	}
	for _, tc := range cases {
		checkOracle(t, tc.name, tc.res, nil)
		checkOracle(t, tc.name+" cached", tc.res, cache)
	}
}

// The wrappers are the encoder into a fresh buffer.
func TestMetricsJSONWrappers(t *testing.T) {
	res := tableResult()
	st := simcache.Stats{Hits: 1, Writes: 2}
	for _, c := range []struct {
		name  string
		cache *simcache.Stats
		got   func() ([]byte, error)
	}{
		{"MetricsJSON", nil, func() ([]byte, error) { return MetricsJSON(res) }},
		{"MetricsJSONWithCache", &st, func() ([]byte, error) { return MetricsJSONWithCache(res, st) }},
	} {
		want, _ := json.MarshalIndent(collectMetrics(res, c.cache), "", "  ")
		got, err := c.got()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s = %s, %v; want %s", c.name, got, err, want)
		}
	}
}

// fuzzReader takes field values from fuzz bytes: integers as varints, so
// small values and ties are common, floats either as raw IEEE bits (NaN,
// ±Inf and denormals included) or as a varint over 1000. Exhausted input
// reads as zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) int() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *fuzzReader) float() float64 {
	if len(r.b) >= 9 && r.b[0]&1 == 0 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[1:9]))
		r.b = r.b[9:]
		return v
	}
	if len(r.b) > 0 {
		r.b = r.b[1:]
	}
	return float64(r.int()) / 1000
}

// fuzzResult builds a result with every field the document renders taken
// from data.
func fuzzResult(arch, queue string, data []byte) (*sim.Result, *simcache.Stats) {
	r := &fuzzReader{b: data}
	res := &sim.Result{Arch: arch}
	res.Config.AVDQSize, res.Config.VADQSize = int(r.int()), int(r.int())
	res.Config.MemLatency, res.Config.Bypass = r.int(), r.int()&1 == 1
	res.Cycles = r.int()
	for _, p := range []*int64{
		&res.Counts.ScalarInsts, &res.Counts.VectorInsts, &res.Counts.VectorOps,
		&res.Traffic.LoadElems, &res.Traffic.StoreElems,
		&res.Bypasses, &res.BypassedElems, &res.Flushes,
	} {
		*p = r.int()
	}
	for s := range res.States.Cycles {
		res.States.Cycles[s] = r.int()
	}
	for i := range res.Stalls {
		res.Stalls[i] = r.int()
	}
	for n := r.int() & 3; n > 0; n-- {
		res.Queues = append(res.Queues, sim.QueueStat{
			Name: queue, Cap: int(r.int()), Pushes: r.int(), Pops: r.int(),
			Peak: int(r.int()), MeanLen: r.float(), FullCycles: r.int(),
		})
	}
	if r.int()&1 == 0 {
		return res, nil
	}
	return res, &simcache.Stats{Hits: r.int(), Misses: r.int(), Corrupt: r.int(),
		Evicted: r.int(), Writes: r.int(), Verified: r.int(), Orphans: r.int()}
}

// FuzzMetricsJSON holds AppendMetricsJSON to encoding/json on results built
// from arbitrary bytes, bytes and error alike.
func FuzzMetricsJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, arch, queue string, data []byte) {
		res, cache := fuzzResult(arch, queue, data)
		checkOracle(t, "fuzz", res, cache)
	})
}

// Into a buffer with room, the encoder allocates nothing.
func TestAppendMetricsJSONZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, err := workload.Get("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	cache := &simcache.Stats{Hits: 1}
	for _, arch := range []string{"REF", "DVA"} {
		res := runCell(t, p, arch, 50)
		buf, err := AppendMetricsJSON(nil, res, cache)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf, _ = AppendMetricsJSON(buf[:0], res, cache)
		})
		if allocs != 0 {
			t.Errorf("%s: AppendMetricsJSON into a reused buffer allocates %.1f times, want 0", arch, allocs)
		}
	}
}

// BenchmarkMetricsJSON renders the BDNA L=50 reply of a DVA and a REF run
// through MetricsJSON, as dvad's /v1/simulate and dvasim -metrics-json do.
func BenchmarkMetricsJSON(b *testing.B) {
	p, err := workload.Get("BDNA")
	if err != nil {
		b.Fatal(err)
	}
	for _, arch := range []string{"DVA", "REF"} {
		res := runCell(b, p, arch, 50)
		b.Run(arch, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MetricsJSON(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
