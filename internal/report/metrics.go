package report

import (
	"encoding/json"
	"fmt"

	"decvec/internal/sim"
	"decvec/internal/simcache"
)

// This file renders the observability layer's run summary — stall
// attribution and queue occupancy — as machine-readable JSON and as tables.
// tef.go renders the cycle-stamped event stream.

// Metrics is the machine-readable summary of one simulation run, the schema
// behind `dvasim -metrics-json`.
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

// CollectMetrics builds the Metrics view of a result.
func CollectMetrics(res *sim.Result) *Metrics {
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
	return m
}

// MetricsJSON renders the result as indented JSON.
func MetricsJSON(res *sim.Result) ([]byte, error) {
	return json.MarshalIndent(CollectMetrics(res), "", "  ")
}

// MetricsJSONWithCache is MetricsJSON with the persistent cache counters
// attached.
func MetricsJSONWithCache(res *sim.Result, st simcache.Stats) ([]byte, error) {
	m := CollectMetrics(res)
	m.Cache = CacheMetricOf(st)
	return json.MarshalIndent(m, "", "  ")
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
