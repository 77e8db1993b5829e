package report

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"decvec/internal/sim"
	"decvec/internal/simcache"
)

// This file renders the observability layer's run summary — stall
// attribution and queue occupancy — as machine-readable JSON and as tables.
// tef.go renders the cycle-stamped event stream.

// Metrics is the machine-readable summary of one simulation run, the schema
// behind `dvasim -metrics-json` and dvad's /v1/simulate reply. The program
// writes it with AppendMetricsJSON and never builds a Metrics value; the
// type is the schema clients decode into.
type Metrics struct {
	Arch   string `json:"arch"`
	Config string `json:"config"`
	Cycles int64  `json:"cycles"`

	IPC           float64 `json:"ipc"`
	ScalarInsts   int64   `json:"scalarInsts"`
	VectorInsts   int64   `json:"vectorInsts"`
	VectorOps     int64   `json:"vectorOps"`
	LoadElems     int64   `json:"loadElems"`
	StoreElems    int64   `json:"storeElems"`
	Bypasses      int64   `json:"bypasses"`
	BypassedElems int64   `json:"bypassedElems"`
	Flushes       int64   `json:"flushes"`

	States []StateMetric `json:"states"`
	// Stalls lists every stall reason with at least one cycle, most cycles
	// first. ProcStalls aggregates them per unit.
	Stalls     []StallMetric     `json:"stalls"`
	ProcStalls []ProcStallMetric `json:"procStalls"`
	// Queues summarizes every architectural queue (absent for REF).
	Queues []QueueMetric `json:"queues,omitempty"`
	// Cache is the persistent result-cache counter snapshot, present only
	// when the run was served through a store (dvasim -cache).
	Cache *CacheMetric `json:"cache,omitempty"`
}

// StateMetric is one (FU2,FU1,LD) state's share of the run.
type StateMetric struct {
	State    string  `json:"state"`
	Cycles   int64   `json:"cycles"`
	Fraction float64 `json:"fraction"`
}

// StallMetric is one stall reason's cycle count.
type StallMetric struct {
	Reason string `json:"reason"` // canonical "Proc.cause" name
	Proc   string `json:"proc"`
	Cycles int64  `json:"cycles"`
}

// ProcStallMetric is one unit's total stall cycles.
type ProcStallMetric struct {
	Proc   string `json:"proc"`
	Cycles int64  `json:"cycles"`
}

// QueueMetric is one queue's occupancy summary.
type QueueMetric struct {
	Name       string  `json:"name"`
	Cap        int     `json:"cap"`
	Pushes     int64   `json:"pushes"`
	Pops       int64   `json:"pops"`
	Peak       int     `json:"peak"`
	MeanLen    float64 `json:"meanLen"`
	Pressure   float64 `json:"pressure"`
	FullCycles int64   `json:"fullCycles"`
}

// stateNames holds every (FU2,FU1,LD) state's name, so rendering a run
// does not format them anew.
var stateNames = func() (n [sim.NumStates]string) {
	for s := range n {
		n[s] = sim.State(s).String()
	}
	return n
}()

// MetricsJSONCap is a buffer capacity that holds any run's metrics JSON: a
// DVA run with cache counters renders to under 6 KiB.
const MetricsJSONCap = 8 << 10

// MetricsJSON renders the result as indented JSON.
func MetricsJSON(res *sim.Result) ([]byte, error) {
	return AppendMetricsJSON(make([]byte, 0, MetricsJSONCap), res, nil)
}

// MetricsJSONWithCache is MetricsJSON with the persistent cache counters
// attached.
func MetricsJSONWithCache(res *sim.Result, st simcache.Stats) ([]byte, error) {
	return AppendMetricsJSON(make([]byte, 0, MetricsJSONCap), res, &st)
}

// AppendMetricsJSON appends the Metrics document of res, with the cache
// counters when cache is non-nil, to dst. Its bytes are those
// json.MarshalIndent(m, "", "  ") writes for the equivalent Metrics value m,
// built straight from the result without reflection, so a buffer with room
// takes no allocation. Like encoding/json it refuses NaN and ±Inf, with the
// same *json.UnsupportedValueError; on error it returns dst unchanged.
func AppendMetricsJSON(dst []byte, res *sim.Result, cache *simcache.Stats) ([]byte, error) {
	w := indentWriter{b: dst}
	w.open('{')
	w.key("arch")
	w.str(res.Arch)
	w.key("config")
	w.b = appendConfig(w.b, &res.Config)
	w.intKey("cycles", res.Cycles)
	w.floatKey("ipc", res.IPC())
	w.intKey("scalarInsts", res.Counts.ScalarInsts)
	w.intKey("vectorInsts", res.Counts.VectorInsts)
	w.intKey("vectorOps", res.Counts.VectorOps)
	w.intKey("loadElems", res.Traffic.LoadElems)
	w.intKey("storeElems", res.Traffic.StoreElems)
	w.intKey("bypasses", res.Bypasses)
	w.intKey("bypassedElems", res.BypassedElems)
	w.intKey("flushes", res.Flushes)

	w.key("states")
	w.open('[')
	for s := sim.State(0); s < sim.NumStates; s++ {
		w.elem()
		w.open('{')
		w.key("state")
		w.str(stateNames[s])
		w.intKey("cycles", res.States.Cycles[s])
		w.floatKey("fraction", res.States.Fraction(s))
		w.close('}')
	}
	w.close(']')

	// The nonzero stall reasons, most cycles first and ties in reason
	// order: sim.StallCounts.Nonzero's order, sorted in place.
	var order [sim.NumStallReasons]sim.StallReason
	n := 0
	for r, c := range res.Stalls {
		if c <= 0 {
			continue
		}
		i := n
		for ; i > 0 && res.Stalls[order[i-1]] < c; i-- {
			order[i] = order[i-1]
		}
		order[i] = sim.StallReason(r)
		n++
	}
	w.key("stalls")
	if n == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for _, r := range order[:n] {
			w.elem()
			w.open('{')
			w.key("reason")
			w.str(r.String())
			w.key("proc")
			w.str(r.Proc().String())
			w.intKey("cycles", res.Stalls[r])
			w.close('}')
		}
		w.close(']')
	}

	w.key("procStalls")
	listed := false
	for p := sim.Proc(0); p < sim.NumProcs; p++ {
		t := res.Stalls.ProcTotal(p)
		if t <= 0 {
			continue
		}
		if !listed {
			w.open('[')
			listed = true
		}
		w.elem()
		w.open('{')
		w.key("proc")
		w.str(p.String())
		w.intKey("cycles", t)
		w.close('}')
	}
	if listed {
		w.close(']')
	} else {
		w.b = append(w.b, "null"...)
	}

	if len(res.Queues) > 0 {
		w.key("queues")
		w.open('[')
		for i := range res.Queues {
			q := &res.Queues[i]
			w.elem()
			w.open('{')
			w.key("name")
			w.str(q.Name)
			w.intKey("cap", int64(q.Cap))
			w.intKey("pushes", q.Pushes)
			w.intKey("pops", q.Pops)
			w.intKey("peak", int64(q.Peak))
			w.floatKey("meanLen", q.MeanLen)
			w.floatKey("pressure", q.Pressure())
			w.intKey("fullCycles", q.FullCycles)
			w.close('}')
		}
		w.close(']')
	}

	if cache != nil {
		w.key("cache")
		w.open('{')
		w.intKey("hits", cache.Hits)
		w.intKey("misses", cache.Misses)
		w.intKey("corrupt", cache.Corrupt)
		w.intKey("evicted", cache.Evicted)
		w.intKey("writes", cache.Writes)
		w.intKey("verified", cache.Verified)
		w.intKey("orphans", cache.Orphans)
		w.close('}')
	}
	w.close('}')
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// appendConfig appends the quoted sim.Config.String of c, "DVA 256/16 L=50",
// whose characters need no JSON escaping.
func appendConfig(b []byte, c *sim.Config) []byte {
	b = append(b, '"')
	b = append(b, sim.ArchName("DVA", c.Bypass)...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(c.AVDQSize), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.VADQSize), 10)
	b = append(b, " L="...)
	b = strconv.AppendInt(b, c.MemLatency, 10)
	return append(b, '"')
}

// indentWriter appends JSON in json.MarshalIndent's layout with a
// two-space indent. Every container it opens holds at least one member.
type indentWriter struct {
	b     []byte
	depth int  // open containers
	first bool // the innermost container has no member yet
	err   error
}

const indentSpaces = "                "

// open starts an object or array.
func (w *indentWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends the innermost container on a line of its own.
func (w *indentWriter) close(c byte) {
	w.depth--
	w.newline()
	w.b = append(w.b, c)
	w.first = false
}

// elem starts an array element: the separator and its line.
func (w *indentWriter) elem() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// key starts an object member; name must need no escaping.
func (w *indentWriter) key(name string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *indentWriter) newline() {
	w.b = append(w.b, '\n')
	w.b = append(w.b, indentSpaces[:2*w.depth]...)
}

func (w *indentWriter) str(s string) { w.b = appendJSONString(w.b, s) }

func (w *indentWriter) intKey(name string, v int64) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, v, 10)
}

// floatKey writes v as encoding/json writes a float64: the shortest 'f'
// form, or the 'e' form for magnitudes below 1e-6 or from 1e21 on, with a
// negative exponent's leading zero dropped (1e-07 becomes 1e-7). NaN and
// ±Inf are an error, the first one kept.
func (w *indentWriter) floatKey(name string, v float64) {
	w.key(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if format == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// StallTable renders the nonzero stall reasons of a run as a table, with
// each reason's share of total execution cycles.
func StallTable(res *sim.Result) string {
	t := NewTable("Stall cycles by cause",
		"cause", "unit", "cycles", "% of run")
	for _, sc := range res.Stalls.Nonzero() {
		pct := 0.0
		if res.Cycles > 0 {
			pct = 100 * float64(sc.Cycles) / float64(res.Cycles)
		}
		t.AddRowf(sc.Reason.String(), sc.Reason.Proc().String(), sc.Cycles, fmt.Sprintf("%5.1f", pct))
	}
	return t.String()
}

// QueueTable renders the per-queue occupancy stats of a run as a table.
func QueueTable(res *sim.Result) string {
	t := NewTable("Queue occupancy",
		"queue", "cap", "pushes", "peak", "mean", "pressure", "full cycles")
	for _, q := range res.Queues {
		t.AddRowf(q.Name, q.Cap, q.Pushes, q.Peak,
			fmt.Sprintf("%.2f", q.MeanLen), fmt.Sprintf("%.3f", q.Pressure()), q.FullCycles)
	}
	return t.String()
}
