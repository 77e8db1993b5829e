package sim_test

import (
	"reflect"
	"testing"

	"decvec/internal/dva"
	"decvec/internal/sim"
	"decvec/internal/tracegen"
)

// Allocation budgets of the codec on a real DVA result. A warm sweep cell
// is checked once by the worker's store and decoded once by the
// coordinator, so these are its codec cost; the check must cost nothing. A
// decode makes one allocation for the result and its histogram headers, one
// per histogram's buckets and one for the queue list; a queue or arch name
// missing from the decoder's name table costs one more each, so a stale
// table fails here.
func TestResultCodecAllocs(t *testing.T) {
	cfg := sim.DefaultConfig(50)
	cfg.Bypass = true
	res, err := dva.NewRunner().Run(tracegen.Random(7, 2000).Trace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc := sim.AppendResult(nil, res)
	buf := make([]byte, 0, len(enc))
	if n := testing.AllocsPerRun(50, func() { buf = sim.AppendResult(buf[:0], res) }); n != 0 {
		t.Errorf("AppendResult into a buffer with room: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { _, err = sim.DecodeResultBytes(enc) }); n > 4 {
		t.Errorf("DecodeResultBytes: %v allocs, want at most 4", n)
	}
	if n := testing.AllocsPerRun(50, func() { err = sim.CheckResultBytes(enc) }); n != 0 || err != nil {
		t.Errorf("CheckResultBytes: %v allocs, error %v; want 0 and nil", n, err)
	}
	got, err := sim.DecodeResultBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Error("the DVA result does not round-trip")
	}
}
