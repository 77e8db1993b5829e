// Package sim holds the configuration and measurement infrastructure shared
// by the reference and decoupled architecture simulators.
package sim

import (
	"fmt"
	"strings"

	"decvec/internal/isa"
)

// Default queue lengths from the paper (§5): all instruction queues 16
// entries, all scalar data queues 256 entries, vector load queue (AVDQ) 256
// slots, vector store queue (VADQ/VSAQ) 16 slots.
const (
	DefaultIQSize      = 16
	DefaultScalarQSize = 256
	DefaultAVDQSize    = 256
	DefaultVADQSize    = 16
)

// MaxMemLatency and MaxQueueSlots bound a valid configuration far above any
// machine the paper studies, so that no request can make a core overflow
// its cycle counters or allocate gigabytes of queue.
const (
	MaxMemLatency = 1 << 20
	MaxQueueSlots = 1 << 16
)

// Config parametrizes a simulation run. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// MemLatency is L, the number of cycles between a load's address issue
	// and the arrival of its first element. Stores never observe latency
	// (§4.2). The paper sweeps L over 1..100.
	MemLatency int64

	// Pipeline start-up depths per operation group, in cycles. A vector
	// operation started at cycle t delivers element i at t+depth+i.
	AddDepth   int64 // add/sub/logic/compare/min/max
	MulDepth   int64 // multiplication and multiply-add
	DivDepth   int64 // division
	SqrtDepth  int64 // square root
	QMovDepth  int64 // DVA queue-move units
	ChainDelay int64 // cycles a chained consumer trails its producer

	// ScalarCacheLines and ScalarCacheLineBytes size the direct-mapped
	// scalar cache that filters scalar memory accesses.
	ScalarCacheLines     int
	ScalarCacheLineBytes int

	// Decoupled-architecture queue sizes.
	IQSize      int // APIQ, SPIQ, VPIQ instruction queues
	ScalarQSize int // ASDQ, SADQ, SVDQ, VSDQ, SAAQ, SSAQ, SFBQ, AFBQ
	AVDQSize    int // vector load data queue, in vector-register slots
	VADQSize    int // vector store data queue, in vector-register slots
	VSAQSize    int // vector store address queue; 0 means "same as VADQSize"

	// MemPorts is the number of memory ports (address buses). The paper's
	// machines have exactly one; the extension-ports experiment widens it
	// to compare a real second port against the §7 bypass's "illusion of
	// two memory ports".
	MemPorts int

	// QMovUnits is the number of queue-move units in the VP. The paper's
	// §4.3 chose two, "because otherwise the VP would be paying a high
	// overhead in some very common sequences of code"; the ablation-qmov
	// experiment reproduces that design decision.
	QMovUnits int

	// Bypass enables the §7 VADQ->AVDQ bypass unit.
	Bypass bool

	// LatencyJitter adds a deterministic per-access excess latency in
	// [0, LatencyJitter] cycles to loads, modeling memory-module and
	// interconnect conflicts in a multiprocessor (see AccessLatency).
	LatencyJitter int64

	// SlowTick disables the idle-skip (event-horizon) fast path and forces
	// the simulators to advance one cycle at a time. Results are bit-identical
	// in both modes — SlowTick exists as the reference mode the equivalence
	// suite checks the fast path against (see DESIGN.md "Idle-skip
	// advancement"); it costs wall-clock time, never accuracy.
	SlowTick bool
}

// DefaultConfig returns the configuration used for the paper's main DVA
// experiments (Figure 3) at the given memory latency.
func DefaultConfig(latency int64) Config {
	return Config{
		MemLatency:           latency,
		AddDepth:             6,
		MulDepth:             7,
		DivDepth:             20,
		SqrtDepth:            20,
		QMovDepth:            2,
		ChainDelay:           1,
		ScalarCacheLines:     256,
		ScalarCacheLineBytes: 32,
		IQSize:               DefaultIQSize,
		ScalarQSize:          DefaultScalarQSize,
		AVDQSize:             DefaultAVDQSize,
		VADQSize:             DefaultVADQSize,
		QMovUnits:            2,
		MemPorts:             1,
	}
}

// BypassConfig returns a §7 bypass configuration "BYP load/store": loadQ
// slots in the AVDQ and storeQ slots in the VADQ/VSAQ pair.
func BypassConfig(latency int64, loadQ, storeQ int) Config {
	c := DefaultConfig(latency)
	c.Bypass = true
	c.AVDQSize = loadQ
	c.VADQSize = storeQ
	return c
}

// EffVSAQSize returns the vector store address queue size, defaulting to the
// store data queue size.
func (c *Config) EffVSAQSize() int {
	if c.VSAQSize > 0 {
		return c.VSAQSize
	}
	return c.VADQSize
}

// Depth returns the pipeline start-up depth for an opcode.
func (c *Config) Depth(op isa.Opcode) int64 {
	switch op {
	case isa.OpMul, isa.OpMulAdd:
		return c.MulDepth
	case isa.OpDiv:
		return c.DivDepth
	case isa.OpSqrt:
		return c.SqrtDepth
	default: // declint:nonexhaustive — every other opcode (add/logic/compare family) runs at the short add depth
		return c.AddDepth
	}
}

// Validate reports the first invalid field of the configuration.
func (c *Config) Validate() error {
	switch {
	case c.MemLatency < 1:
		return fmt.Errorf("sim: memory latency %d < 1", c.MemLatency)
	case c.AddDepth < 1 || c.MulDepth < 1 || c.DivDepth < 1 || c.SqrtDepth < 1:
		return fmt.Errorf("sim: pipeline depths must be >= 1")
	case c.QMovDepth < 1:
		return fmt.Errorf("sim: QMOV depth %d < 1", c.QMovDepth)
	case c.ChainDelay < 1:
		return fmt.Errorf("sim: chain delay %d < 1", c.ChainDelay)
	case c.ScalarCacheLines < 1 || c.ScalarCacheLineBytes < int(isa.ElemSize):
		return fmt.Errorf("sim: scalar cache %dx%dB too small", c.ScalarCacheLines, c.ScalarCacheLineBytes)
	case c.IQSize < 2:
		return fmt.Errorf("sim: instruction queues need >= 2 slots, got %d", c.IQSize)
	case c.ScalarQSize < 1:
		return fmt.Errorf("sim: scalar queue size %d < 1", c.ScalarQSize)
	case c.AVDQSize < 1:
		return fmt.Errorf("sim: AVDQ size %d < 1", c.AVDQSize)
	case c.VADQSize < 1:
		return fmt.Errorf("sim: VADQ size %d < 1", c.VADQSize)
	case c.QMovUnits < 1:
		return fmt.Errorf("sim: QMOV unit count %d < 1", c.QMovUnits)
	case c.MemPorts < 1:
		return fmt.Errorf("sim: memory port count %d < 1", c.MemPorts)
	case c.MemLatency > MaxMemLatency || c.LatencyJitter > MaxMemLatency:
		return fmt.Errorf("sim: memory latency %d or jitter %d over %d cycles", c.MemLatency, c.LatencyJitter, MaxMemLatency)
	case max(c.IQSize, c.ScalarQSize, c.AVDQSize, c.VADQSize, c.VSAQSize) > MaxQueueSlots:
		return fmt.Errorf("sim: a queue has more than %d slots", MaxQueueSlots)
	}
	return nil
}

// ParseArch resolves an architecture name, in any letter case, to the core
// that simulates it: "REF" or "DVA". The §7 bypass machine BYP is not a
// third core but the DVA with Config.Bypass set, so it parses to ("DVA",
// true); every spelling of one machine then shares its cache key.
func ParseArch(name string) (core string, bypass bool, err error) {
	switch strings.ToUpper(name) {
	case "REF":
		return "REF", false, nil
	case "DVA":
		return "DVA", false, nil
	case "BYP":
		return "DVA", true, nil
	}
	return "", false, fmt.Errorf("unknown architecture %q (want REF, DVA or BYP)", name)
}

// ArchName is the inverse of ParseArch: the name of core with the bypass
// unit on or off, "BYP" for a bypassing DVA and core itself otherwise.
func ArchName(core string, bypass bool) string {
	if bypass && core == "DVA" {
		return "BYP"
	}
	return core
}

// String names the configuration in the paper's style, e.g. "DVA 256/16" or
// "BYP 4/8 L=30".
func (c *Config) String() string {
	return fmt.Sprintf("%s %d/%d L=%d", ArchName("DVA", c.Bypass), c.AVDQSize, c.VADQSize, c.MemLatency)
}

// Label names a run of core arch under c as the reports print it: the DVA
// and the BYP with their queue sizes (String), "DVA 256/16 L=50", and any
// other core, which has no AVDQ or VADQ, by name and latency, "REF L=50".
func (c *Config) Label(arch string) string {
	if arch == "DVA" || arch == "BYP" {
		return c.String()
	}
	return fmt.Sprintf("%s L=%d", arch, c.MemLatency)
}

// DeadlockWindow is how many cycles without progress a cycle-level core
// tolerates before declaring a deadlock: every legitimate passive wait is
// bounded by the worst memory latency plus a pipeline's worth of cycles,
// times the core's factor k for waits queued back to back.
func (c *Config) DeadlockWindow(k int64) int64 {
	return k*(c.MemLatency+c.LatencyJitter+isa.MaxVL+c.DivDepth) + 4096
}

// AccessLatency returns the effective memory latency of a load issued with
// the given base address and sequence number. With LatencyJitter zero it is
// simply MemLatency; otherwise a deterministic per-access excess in
// [0, LatencyJitter] is added, modeling conflicts in the memory modules and
// interconnection network of a vector multiprocessor (the paper's §1
// motivation). The excess is a hash of (address, sequence), so runs stay
// bit-reproducible and both architectures observe identical per-access
// latencies.
func (c *Config) AccessLatency(base uint64, seq int64) int64 {
	if c.LatencyJitter <= 0 {
		return c.MemLatency
	}
	x := base ^ uint64(seq)*0x9e3779b97f4a7c15
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return c.MemLatency + int64(x%uint64(c.LatencyJitter+1))
}
