// Package trace defines the dynamic instruction trace abstraction consumed
// by the simulators, playing the role of the Dixie traces the paper used:
// a sequence of instructions annotated with vector lengths, vector strides
// and memory reference addresses.
package trace

import (
	"fmt"
	"sync/atomic"

	"decvec/internal/isa"
)

// Source names the trace type the simulators replay. Every trace is an
// in-memory Slice, so Source is an alias kept for callers that spell it.
type Source = *Slice

// Slice is an in-memory trace: the dynamic instruction sequence, replayed
// by indexing Insts. Simulators run one Slice many times under different
// configurations, so Insts must not be modified once built.
type Slice struct {
	TraceName string
	Insts     []isa.Inst

	// aux caches one consumer-computed annotation derived from the
	// (immutable) instruction sequence — for example a simulator's
	// predecoded dispatch plan — so it is computed once per trace rather
	// than once per run. See Aux/SetAux.
	aux atomic.Value
}

// Aux returns the annotation published by SetAux, or nil.
func (s *Slice) Aux() any { return s.aux.Load() }

// SetAux publishes an annotation derived from the instruction sequence.
// Because Insts is immutable for the lifetime of the trace, concurrent
// writers necessarily derive equivalent values, so losing a publication
// race is harmless. All stores must use one concrete type.
func (s *Slice) SetAux(v any) { s.aux.Store(v) }

// Name identifies the trace (e.g. the benchmark program name).
func (s *Slice) Name() string { return s.TraceName }

// Len returns the number of dynamic instructions.
func (s *Slice) Len() int { return len(s.Insts) }

// Stats are the Table 1 columns for one trace.
type Stats struct {
	Name        string
	BasicBlocks int64 // #bbs
	ScalarInsts int64 // #insns S
	VectorInsts int64 // #insns V
	VectorOps   int64 // #ops V
	MemInsts    int64
	SpillMemOps int64
	// VLHist is the distribution of vector lengths used.
	VLHist [isa.MaxVL + 1]int64
}

// Vectorization is the degree of vectorization: vector ops over total ops.
func (s *Stats) Vectorization() float64 {
	total := float64(s.ScalarInsts + s.VectorOps)
	if total == 0 {
		return 0
	}
	return float64(s.VectorOps) / total
}

// AvgVL is vector operations per vector instruction.
func (s *Stats) AvgVL() float64 {
	if s.VectorInsts == 0 {
		return 0
	}
	return float64(s.VectorOps) / float64(s.VectorInsts)
}

// SpillFraction is the fraction of memory instructions marked as spill
// traffic by the generator.
func (s *Stats) SpillFraction() float64 {
	if s.MemInsts == 0 {
		return 0
	}
	return float64(s.SpillMemOps) / float64(s.MemInsts)
}

// String formats the stats as one Table 1 row.
func (s *Stats) String() string {
	return fmt.Sprintf("%-8s bbs=%d S=%d V=%d Vops=%d vect=%.1f%% avgVL=%.0f",
		s.Name, s.BasicBlocks, s.ScalarInsts, s.VectorInsts, s.VectorOps,
		100*s.Vectorization(), s.AvgVL())
}

// Collect computes the trace's statistics.
func Collect(s *Slice) *Stats {
	stats := &Stats{Name: s.Name()}
	for i := range s.Insts {
		in := &s.Insts[i]
		if in.IsVector() {
			stats.VectorInsts++
			stats.VectorOps += int64(in.VL)
			stats.VLHist[in.VL]++
		} else {
			stats.ScalarInsts++
		}
		if in.Class.IsMemory() {
			stats.MemInsts++
			if in.Spill {
				stats.SpillMemOps++
			}
		}
		if in.BBEnd {
			stats.BasicBlocks++
		}
	}
	return stats
}

// Validate checks every instruction and the sequence-number invariant
// (dense, ascending from 0). It returns the first problem found.
func Validate(s *Slice) error {
	for i := range s.Insts {
		in := &s.Insts[i]
		if in.Seq != int64(i) {
			return fmt.Errorf("trace %s: sequence %d where %d expected", s.Name(), in.Seq, i)
		}
		if err := in.Validate(); err != nil {
			return fmt.Errorf("trace %s: %w", s.Name(), err)
		}
	}
	return nil
}
