package sim

import (
	"strings"
	"testing"
	"testing/quick"

	"decvec/internal/isa"
)

func TestDefaultConfigValid(t *testing.T) {
	for _, l := range []int64{1, 30, 100} {
		cfg := DefaultConfig(l)
		if err := cfg.Validate(); err != nil {
			t.Errorf("L=%d: %v", l, err)
		}
		if cfg.MemLatency != l {
			t.Errorf("latency not set")
		}
		if cfg.IQSize != DefaultIQSize || cfg.AVDQSize != DefaultAVDQSize || cfg.VADQSize != DefaultVADQSize {
			t.Error("paper queue defaults wrong")
		}
	}
}

// A configuration past the latency or queue limits is invalid, so no
// request can overflow a core's cycle counters or allocate gigabytes.
func TestValidateLimits(t *testing.T) {
	for name, mod := range map[string]func(*Config){
		"latency": func(c *Config) { c.MemLatency = MaxMemLatency + 1 },
		"jitter":  func(c *Config) { c.LatencyJitter = MaxMemLatency + 1 },
		"IQ":      func(c *Config) { c.IQSize = MaxQueueSlots + 1 },
		"scalarQ": func(c *Config) { c.ScalarQSize = MaxQueueSlots + 1 },
		"AVDQ":    func(c *Config) { c.AVDQSize = MaxQueueSlots + 1 },
		"VADQ":    func(c *Config) { c.VADQSize = MaxQueueSlots + 1 },
		"VSAQ":    func(c *Config) { c.VSAQSize = MaxQueueSlots + 1 },
	} {
		cfg := DefaultConfig(MaxMemLatency)
		cfg.LatencyJitter, cfg.AVDQSize = MaxMemLatency, MaxQueueSlots
		if err := cfg.Validate(); err != nil {
			t.Fatalf("the limits themselves are rejected: %v", err)
		}
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s past its limit accepted", name)
		}
	}
}

func TestBypassConfig(t *testing.T) {
	cfg := BypassConfig(30, 4, 8)
	if !cfg.Bypass || cfg.AVDQSize != 4 || cfg.VADQSize != 8 {
		t.Errorf("got %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	if got := cfg.String(); got != "BYP 4/8 L=30" {
		t.Errorf("String = %q", got)
	}
	def := DefaultConfig(50)
	if got := def.String(); got != "DVA 256/16 L=50" {
		t.Errorf("String = %q", got)
	}
	// Label names the run's own core: a REF or OOO run has no AVDQ or VADQ
	// to print, and must not read as a DVA run.
	for arch, want := range map[string]string{"REF": "REF L=50", "OOO": "OOO L=50", "DVA": "DVA 256/16 L=50"} {
		if got := def.Label(arch); got != want {
			t.Errorf("Label(%q) = %q, want %q", arch, got, want)
		}
	}
	if got := cfg.Label("BYP"); got != "BYP 4/8 L=30" {
		t.Errorf("Label(BYP) = %q", got)
	}
}

// TestParseArch pins the one architecture parser: every letter case of the
// three names, BYP as the bypassing DVA, ArchName as the exact inverse, and
// the one error text for anything else.
func TestParseArch(t *testing.T) {
	cases := []struct {
		name   string
		core   string
		bypass bool
		canon  string
	}{
		{"REF", "REF", false, "REF"},
		{"ref", "REF", false, "REF"},
		{"ReF", "REF", false, "REF"},
		{"DVA", "DVA", false, "DVA"},
		{"dva", "DVA", false, "DVA"},
		{"Dva", "DVA", false, "DVA"},
		{"BYP", "DVA", true, "BYP"},
		{"byp", "DVA", true, "BYP"},
		{"bYp", "DVA", true, "BYP"},
	}
	for _, c := range cases {
		core, bypass, err := ParseArch(c.name)
		if err != nil {
			t.Errorf("ParseArch(%q): %v", c.name, err)
			continue
		}
		if core != c.core || bypass != c.bypass {
			t.Errorf("ParseArch(%q) = (%q, %v), want (%q, %v)", c.name, core, bypass, c.core, c.bypass)
		}
		if got := ArchName(core, bypass); got != c.canon {
			t.Errorf("ArchName(ParseArch(%q)) = %q, want %q", c.name, got, c.canon)
		}
	}
	if got := ArchName("REF", true); got != "REF" {
		t.Errorf(`ArchName("REF", true) = %q: the bypass unit belongs to the DVA`, got)
	}
	for _, bad := range []string{"", "OOO", "DVA ", "BYPASS"} {
		_, _, err := ParseArch(bad)
		want := `unknown architecture "` + bad + `" (want REF, DVA or BYP)`
		if err == nil || err.Error() != want {
			t.Errorf("ParseArch(%q) error = %v, want %q", bad, err, want)
		}
	}
}

func TestEffVSAQSize(t *testing.T) {
	cfg := DefaultConfig(1)
	if cfg.EffVSAQSize() != cfg.VADQSize {
		t.Error("VSAQ should default to VADQ size")
	}
	cfg.VSAQSize = 7
	if cfg.EffVSAQSize() != 7 {
		t.Error("explicit VSAQ size ignored")
	}
}

func TestConfigValidateRejects(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.MemLatency = 0 },
		func(c *Config) { c.AddDepth = 0 },
		func(c *Config) { c.QMovDepth = 0 },
		func(c *Config) { c.ChainDelay = 0 },
		func(c *Config) { c.ScalarCacheLines = 0 },
		func(c *Config) { c.ScalarCacheLineBytes = 4 },
		func(c *Config) { c.IQSize = 1 },
		func(c *Config) { c.ScalarQSize = 0 },
		func(c *Config) { c.AVDQSize = 0 },
		func(c *Config) { c.VADQSize = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig(10)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestDepth(t *testing.T) {
	cfg := DefaultConfig(1)
	if cfg.Depth(isa.OpAdd) != cfg.AddDepth {
		t.Error("add depth")
	}
	if cfg.Depth(isa.OpMul) != cfg.MulDepth || cfg.Depth(isa.OpMulAdd) != cfg.MulDepth {
		t.Error("mul depth")
	}
	if cfg.Depth(isa.OpDiv) != cfg.DivDepth {
		t.Error("div depth")
	}
	if cfg.Depth(isa.OpSqrt) != cfg.SqrtDepth {
		t.Error("sqrt depth")
	}
	if cfg.Depth(isa.OpAnd) != cfg.AddDepth {
		t.Error("logic ops use the add pipeline")
	}
}

func TestMakeState(t *testing.T) {
	if MakeState(false, false, false) != 0 {
		t.Error("empty state")
	}
	if MakeState(true, true, true) != StateFU2|StateFU1|StateLD {
		t.Error("full state")
	}
	if MakeState(true, false, false) != StateFU2 {
		t.Error("fu2 only")
	}
	if got := MakeState(true, false, true).String(); got != "<FU2,,LD>" {
		t.Errorf("String = %q", got)
	}
	if got := State(0).String(); got != "<,,>" {
		t.Errorf("String = %q", got)
	}
}

func TestStateStats(t *testing.T) {
	var st StateStats
	st.Observe(0)
	st.Observe(0)
	st.Observe(StateLD)
	st.Observe(StateFU2 | StateFU1)
	st.Observe(StateFU2 | StateFU1 | StateLD)
	if st.Total() != 5 {
		t.Errorf("Total = %d", st.Total())
	}
	if st.Idle() != 2 {
		t.Errorf("Idle = %d", st.Idle())
	}
	// LD idle: states 0 (x2) and <FU2,FU1, > (x1).
	if st.LDIdle() != 3 {
		t.Errorf("LDIdle = %d", st.LDIdle())
	}
	if st.PeakFP() != 2 {
		t.Errorf("PeakFP = %d", st.PeakFP())
	}
	if got := st.Fraction(StateLD); got != 0.2 {
		t.Errorf("Fraction = %v", got)
	}
	if !strings.Contains(st.String(), "<,,>=2") {
		t.Errorf("String = %q", st.String())
	}
	var empty StateStats
	if empty.Fraction(0) != 0 {
		t.Error("empty fraction should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 2, 9} { // 9 clamps into bucket 4
		h.Observe(v)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Clamped != 1 {
		t.Errorf("Clamped = %d", h.Clamped)
	}
	if h.Max() != 4 {
		t.Errorf("Max = %d", h.Max())
	}
	want := (0.0 + 1 + 1 + 2 + 4) / 5
	if got := h.Mean(); got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(4)
	if h.Max() != -1 || h.Mean() != 0 || h.Total() != 0 {
		t.Error("empty histogram")
	}
}

func TestHistogramPanics(t *testing.T) {
	h := NewHistogram(4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	h.Observe(-1)
}

func TestCounts(t *testing.T) {
	c := Counts{ScalarInsts: 100, VectorInsts: 10, VectorOps: 900}
	if got := c.Vectorization(); got != 0.9 {
		t.Errorf("Vectorization = %v", got)
	}
	if got := c.AvgVL(); got != 90 {
		t.Errorf("AvgVL = %v", got)
	}
	var zero Counts
	if zero.Vectorization() != 0 || zero.AvgVL() != 0 {
		t.Error("zero counts")
	}
}

func TestMemTraffic(t *testing.T) {
	tr := MemTraffic{LoadElems: 7, StoreElems: 5}
	if tr.Total() != 12 {
		t.Errorf("Total = %d", tr.Total())
	}
}

func TestResultIPC(t *testing.T) {
	r := Result{Cycles: 100, Counts: Counts{ScalarInsts: 30, VectorInsts: 20}}
	if got := r.IPC(); got != 0.5 {
		t.Errorf("IPC = %v", got)
	}
	var zero Result
	if zero.IPC() != 0 {
		t.Error("zero-cycle IPC")
	}
	if !strings.Contains(r.String(), "cycles") {
		t.Error("Result.String")
	}
}

// Property: a histogram's total always equals the number of observations
// and its mean is within the observed bucket range.
func TestHistogramInvariants_Quick(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram(16)
		for _, v := range vals {
			h.Observe(int(v % 24))
		}
		if h.Total() != int64(len(vals)) {
			return false
		}
		if len(vals) == 0 {
			return true
		}
		return h.Mean() >= 0 && h.Mean() <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MakeState round-trips its three flags.
func TestMakeStateRoundTrip_Quick(t *testing.T) {
	f := func(fu2, fu1, ld bool) bool {
		s := MakeState(fu2, fu1, ld)
		return (s&StateFU2 != 0) == fu2 && (s&StateFU1 != 0) == fu1 && (s&StateLD != 0) == ld
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
