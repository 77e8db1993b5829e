package report

import "encoding/json"

// ServerMetric is the machine-readable schema behind the dvad daemon's
// /statsz endpoint and its shutdown summary: request counters, admission
// gauges, the suite's simulation count, and — when a persistent store is
// attached — the same cache counters the CLI tools report, so a daemon and
// a dvabench run against one store render identically.
type ServerMetric struct {
	UptimeSec     float64 `json:"uptimeSec"`
	Served        int64   `json:"served"`           // requests answered 200
	Simulate      int64   `json:"simulateRequests"` // /v1/simulate requests accepted
	Sweep         int64   `json:"sweepRequests"`    // /v1/sweep requests accepted
	Overloaded    int64   `json:"overloaded"`       // requests shed with 429
	Timeouts      int64   `json:"timeouts"`         // requests expired with 504
	Errors        int64   `json:"errors"`           // requests failed 4xx/5xx (excluding 429/504)
	InFlight      int64   `json:"inflight"`         // simulations holding a slot right now
	Queued        int64   `json:"queued"`           // simulations waiting for a slot right now
	MaxConcurrent int     `json:"maxConcurrent"`    // admission slot count
	MaxQueue      int     `json:"maxQueue"`         // admission wait-queue bound
	Simulations   int64   `json:"simulations"`      // simulator invocations actually run
	// Coalesced counts runs, not requests: a /v1/simulate request is one
	// run, a /v1/sweep request one per cell. It counts the runs answered by
	// another run's work, from the memory tier or by joining an identical
	// run in flight. Disk hits are not coalescing; they count in cache.hits.
	// served ≫ simulations is the daemon doing its job.
	Coalesced int64        `json:"coalesced"`
	Cache     *CacheMetric `json:"cache,omitempty"`
}

// ServerJSON renders the /statsz payload as indented JSON.
func ServerJSON(m ServerMetric) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// ServerTable renders the server counters as an ASCII table, the shutdown
// summary companion to CacheTable.
func ServerTable(m ServerMetric) string {
	t := NewTable("dvad server",
		"served", "sims", "coalesced", "inflight", "queued", "429s", "timeouts", "errors")
	t.AddRowf(m.Served, m.Simulations, m.Coalesced, m.InFlight, m.Queued,
		m.Overloaded, m.Timeouts, m.Errors)
	return t.String()
}
