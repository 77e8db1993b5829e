package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sampleResult builds a fully-populated DVA-shaped result exercising every
// codec field, including negative-capable counters left at odd values.
func sampleResult() *Result {
	cfg := DefaultConfig(30)
	cfg.Bypass = true
	cfg.LatencyJitter = 7
	cfg.VSAQSize = 12
	r := &Result{
		Arch:   "BYP",
		Config: cfg,
		Cycles: 123456789,
		Counts: Counts{
			ScalarInsts: 1000, VectorInsts: 200, VectorOps: 12800,
			BasicBlocks: 55, SpillMemOps: 70, MemInsts: 400,
		},
		Traffic:           MemTraffic{LoadElems: 9001, StoreElems: 4002},
		AVDQBusy:          NewHistogram(256),
		VADQBusy:          NewHistogram(16),
		Bypasses:          17,
		BypassedElems:     1088,
		Flushes:           3,
		ScalarCacheHits:   31337,
		ScalarCacheMisses: 42,
	}
	for s := State(0); s < NumStates; s++ {
		r.States.Cycles[s] = int64(s) * 1000003
	}
	r.AVDQBusy.ObserveN(5, 120)
	r.AVDQBusy.ObserveN(256, 4)
	r.AVDQBusy.ObserveN(300, 2) // clamps
	r.VADQBusy.ObserveN(0, 99)
	for i := range r.Stalls {
		r.Stalls[i] = int64(i) * 7
	}
	r.Queues = []QueueStat{
		{Name: "AVDQ", Cap: 256, Pushes: 1000, Pops: 998, Peak: 200, MeanLen: 37.25, FullCycles: 12},
		{Name: "VADQ", Cap: 16, Pushes: 400, Pops: 400, Peak: 16, MeanLen: 3.5, FullCycles: 88},
	}
	return r
}

// refResult builds a REF-shaped result: nil histograms, nil queue list.
func refResult() *Result {
	r := &Result{Arch: "REF", Config: DefaultConfig(1), Cycles: 42}
	r.States.Cycles[0] = 40
	r.States.Cycles[StateLD] = 2
	r.Stalls[StallRefBus] = 9
	return r
}

func TestResultCodecRoundTrip(t *testing.T) {
	for _, r := range []*Result{sampleResult(), refResult()} {
		var buf bytes.Buffer
		if err := EncodeResult(&buf, r); err != nil {
			t.Fatalf("%s: encode: %v", r.Arch, err)
		}
		got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", r.Arch, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", r.Arch, got, r)
		}
	}
}

// The encoding canonicalizes SlowTick away: both tick modes are bit-identical
// (the PR 3 equivalence suite pins this), so a result simulated in slow mode
// must serialize to the same bytes as its fast-mode twin.
func TestResultCodecCanonicalizesSlowTick(t *testing.T) {
	fast := sampleResult()
	slow := sampleResult()
	slow.Config.SlowTick = true
	var bFast, bSlow bytes.Buffer
	if err := EncodeResult(&bFast, fast); err != nil {
		t.Fatal(err)
	}
	if err := EncodeResult(&bSlow, slow); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bFast.Bytes(), bSlow.Bytes()) {
		t.Error("SlowTick leaked into the encoding; fast and slow results must serialize identically")
	}
	got, err := DecodeResult(bytes.NewReader(bSlow.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.SlowTick {
		t.Error("decoded result kept SlowTick=true; the codec canonicalizes it to false")
	}
}

// Determinism: the same result must always encode to the same bytes.
func TestResultCodecDeterministic(t *testing.T) {
	r := sampleResult()
	var a, b bytes.Buffer
	if err := EncodeResult(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := EncodeResult(&b, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same result differ")
	}
}

func TestResultCodecRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResult(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, len(resultMagic), len(full) / 2, len(full) - 1} {
			if _, err := DecodeResult(bytes.NewReader(full[:n])); err == nil {
				t.Errorf("truncation to %d bytes decoded without error", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, full...)
		bad[0] ^= 0xff
		if _, err := DecodeResult(bytes.NewReader(bad)); err == nil {
			t.Error("corrupted magic decoded without error")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte{}, full...), 0x00)
		if _, err := DecodeResult(bytes.NewReader(bad)); err == nil {
			t.Error("trailing byte decoded without error")
		}
	})
}

// The codec lists Config and Result fields explicitly; these pins force a
// compile-visible failure here when a field is added, so the codec (and the
// cache key derivation in internal/simcache) get updated together.
func TestCodecCoversAllFields(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 19 {
		t.Errorf("sim.Config has %d fields, codec encodes 19: update codec.go (encoder+decoder) and this pin", n)
	}
	if n := reflect.TypeOf(Result{}).NumField(); n != 15 {
		t.Errorf("sim.Result has %d fields, codec encodes 15: update codec.go (encoder+decoder) and this pin", n)
	}
	if n := reflect.TypeOf(QueueStat{}).NumField(); n != 7 {
		t.Errorf("sim.QueueStat has %d fields, codec encodes 7: update codec.go (encoder+decoder) and this pin", n)
	}
	if n := reflect.TypeOf(Counts{}).NumField(); n != 6 {
		t.Errorf("sim.Counts has %d fields, codec encodes 6: update codec.go (encoder+decoder) and this pin", n)
	}
}

// FuzzDecodeResult asserts the decoder never panics on arbitrary bytes, that
// the reader and slice paths agree on every input, that CheckResultBytes
// accepts exactly what DecodeResultBytes decodes, that anything accepted
// re-encodes and re-decodes to the same value (the decoded form is a fixed
// point of the codec), and that AppendResult onto a non-empty buffer keeps
// it and appends exactly the EncodeResult bytes.
func FuzzDecodeResult(f *testing.F) {
	for _, r := range []*Result{sampleResult(), refResult()} {
		f.Add(AppendResult(nil, r))
	}
	f.Add(hostileBucketsPayload())
	f.Add([]byte(resultMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResultBytes(data)
		rr, rerr := DecodeResult(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) || !reflect.DeepEqual(r, rr) {
			t.Fatalf("slice and reader paths disagree: %v / %v", err, rerr)
		}
		if cerr := CheckResultBytes(data); (cerr == nil) != (err == nil) {
			t.Fatalf("CheckResultBytes says %v, DecodeResultBytes %v", cerr, err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeResult(&buf, r); err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		out := AppendResult(append([]byte(nil), data...), r)
		if !bytes.Equal(out[:len(data)], data) || !bytes.Equal(out[len(data):], buf.Bytes()) {
			t.Fatal("AppendResult onto a prefix differs from prefix + EncodeResult")
		}
		r2, err := DecodeResultBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), AppendResult(nil, r2)) {
			t.Error("decode∘encode is not a fixed point")
		}
	})
}

// The format is pinned byte for byte: these payloads were written by the
// bufio/io.Reader codec that AppendResult and DecodeResultBytes replaced,
// so any drift in field order, varint form or canonicalization fails here
// before it can orphan every cache entry.
func TestResultCodecGolden(t *testing.T) {
	for _, c := range []struct {
		r   *Result
		hex string
	}{
		{sampleResult(), "4456524553310a034259503c0c0e28280402800440208004800420180204010e00aab4de750086897a8c92f401929bee0298a4e8039eade204a4b6dc05aabfd606d00f900380c8016e8c01a006d28c01c43e0181020000000000f001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000c040111c601000000000000000000000000000000000022801106d2e903541f000e1c2a38465462707e8c019a01a801b601c401d201e001ee01fc018a029802a602b402c202d002de02ec02fa0288039603a403010204415644518004d00fcc0f90030000000000a0424018045641445120a006a006200000000000000c40b001"},
		{refResult(), "4456524553310a03524546020c0e282804028004402080048004200002040000005450040000000000000000000000000000000000000000001f0000000000000000000000000000000000000000000000000000000000001200"},
	} {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendResult(nil, c.r); !bytes.Equal(got, want) {
			t.Errorf("%s: encoding drifted:\n got %x\nwant %x", c.r.Arch, got, want)
		}
		got, err := DecodeResultBytes(want)
		if err != nil || !reflect.DeepEqual(got, c.r) {
			t.Errorf("%s: golden payload decodes to %+v, %v", c.r.Arch, got, err)
		}
	}
}

// hostileBucketsPayload is a zero DVA result's encoding cut at the AVDQ
// histogram, which then claims maxCodecBuckets buckets and ends.
func hostileBucketsPayload() []byte {
	r := &Result{Arch: "DVA"}
	plain := AppendResult(nil, r)
	r.AVDQBusy = &Histogram{}
	at := 0
	for withHist := AppendResult(nil, r); plain[at] == withHist[at]; at++ {
	}
	return binary.AppendUvarint(append(plain[:at:at], 1), maxCodecBuckets)
}

// A count larger than the bytes left is corrupt on its face: the decoder
// must reject it before allocating, so a short hostile row cannot make
// the coordinator allocate 128 MiB of buckets.
func TestDecodeRejectsCountsPastTheEnd(t *testing.T) {
	payload := hostileBucketsPayload()
	if len(payload) != 52 {
		t.Fatalf("hostile payload is %d bytes, want 52", len(payload))
	}
	for _, path := range []struct {
		name   string
		decode func([]byte) (*Result, error)
	}{
		{"slice", DecodeResultBytes},
		{"reader", func(b []byte) (*Result, error) { return DecodeResult(bytes.NewReader(b)) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := path.decode(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte payload claiming %d buckets decoded", path.name, len(payload), maxCodecBuckets)
		}
		if kb := (after.TotalAlloc - before.TotalAlloc) / 1024; kb >= 64 {
			t.Errorf("%s: rejecting the payload allocated %d KiB, want under 64", path.name, kb)
		}
	}
	// Queue and name counts are bounded the same way: sampleResult's queue
	// list starts with the count 2 and the name "AVDQ"; either claiming 100
	// is within its cap and past the bytes left.
	full := AppendResult(nil, sampleResult())
	name := bytes.Index(full, []byte("AVDQ")) - 1
	for what, at := range map[string]int{"queue count": name - 1, "name length": name} {
		bad := append([]byte(nil), full...)
		bad[at] = 100
		if _, err := DecodeResultBytes(bad); err == nil || !strings.Contains(err.Error(), "bytes left") {
			t.Errorf("%s past the bytes left: got error %v", what, err)
		}
	}
}

// A decoder reading from a stream must consume exactly the encoding (no
// buffered over-read past a valid result when framed externally); DecodeResult
// takes the whole payload, so here we just pin that encode length is stable.
func TestEncodeLengthStable(t *testing.T) {
	var a bytes.Buffer
	if err := EncodeResult(&a, refResult()); err != nil {
		t.Fatal(err)
	}
	n := a.Len()
	a.Reset()
	if err := EncodeResult(io.Writer(&a), refResult()); err != nil {
		t.Fatal(err)
	}
	if a.Len() != n {
		t.Errorf("encode length unstable: %d vs %d", a.Len(), n)
	}
}
