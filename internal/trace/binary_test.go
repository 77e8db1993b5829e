package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"decvec/internal/isa"
)

func TestBinaryRoundTrip(t *testing.T) {
	src := &Slice{TraceName: "roundtrip", Insts: sampleInsts()}
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceName != src.TraceName || got.Len() != src.Len() {
		t.Fatalf("header mismatch: %q/%d", got.TraceName, got.Len())
	}
	for i := range src.Insts {
		if got.Insts[i] != src.Insts[i] {
			t.Errorf("instruction %d: %s != %s", i, got.Insts[i].String(), src.Insts[i].String())
		}
	}
}

// loopInsts returns a realistic trace body of n instructions with negative
// strides, large addresses, gathers and every class.
func loopInsts(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	base := uint64(0xdeadbeef000)
	for i := range insts {
		switch i % 5 {
		case 0:
			insts[i] = isa.Inst{Class: isa.ClassVectorLoad, Dst: isa.V(i % 8), Src1: isa.A(1), Base: base + uint64(i)*512, VL: 1 + i%128, Stride: int64(1 + i%7)}
		case 1:
			insts[i] = isa.Inst{Class: isa.ClassVectorStore, Dst: isa.V(i % 8), Base: base - uint64(i)*64, VL: 1 + i%128, Stride: -int64(1 + i%3)}
		case 2:
			insts[i] = isa.Inst{Class: isa.ClassVectorALU, Op: isa.OpMul, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.S(2), VL: 1 + i%128}
		case 3:
			insts[i] = isa.Inst{Class: isa.ClassScalarLoad, Dst: isa.S(i % 8), Base: base + uint64(i), Spill: i%2 == 0}
		default:
			insts[i] = isa.Inst{Class: isa.ClassBranch, Op: isa.OpCmp, Src1: isa.A(0), BBEnd: true}
		}
		insts[i].Seq = int64(i)
	}
	return insts
}

func TestBinaryRoundTripLarge(t *testing.T) {
	insts := loopInsts(500)
	src := &Slice{TraceName: "large", Insts: insts}
	if err := Validate(src); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	// Loop-structured traces should compress well below the in-memory size.
	perInst := float64(buf.Len()) / float64(len(insts))
	if perInst > 16 {
		t.Errorf("encoding too large: %.1f bytes/instruction", perInst)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.Insts {
		if got.Insts[i] != src.Insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE!\nxxxxx")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	src := &Slice{TraceName: "trunc", Insts: sampleInsts()}
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) / 2, len(binaryMagic) + 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryRejectsCorruptInstruction(t *testing.T) {
	src := &Slice{TraceName: "x", Insts: sampleInsts()}
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Smash the class byte of the first instruction into garbage that
	// fails Validate (vector load with VL intact but broken registers).
	idx := len(binaryMagic) + 1 + len("x") + 1 // name-len, name, count
	data[idx+3] = 0xff                         // destination register byte
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("corrupt register byte accepted")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	src := &Slice{TraceName: "empty"}
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.TraceName != "empty" {
		t.Errorf("got %q/%d", got.TraceName, got.Len())
	}
}

// writeOracle is the reference for Write's bytes: a plain encoder that
// writes field by field through bufio. The encoding is the trace half of
// every persistent cache key, so Write must never change it.
func writeOracle(w io.Writer, s *Slice) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(s.TraceName))); err != nil {
		return err
	}
	if _, err := bw.WriteString(s.TraceName); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(s.Insts))); err != nil {
		return err
	}
	var prevBase uint64
	var prevStride int64
	for i := range s.Insts {
		in := &s.Insts[i]
		flags := byte(0)
		if in.Spill {
			flags |= flagSpill
		}
		if in.BBEnd {
			flags |= flagBBEnd
		}
		if err := bw.WriteByte(byte(in.Class)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(in.Op)); err != nil {
			return err
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		for _, r := range [...]isa.Reg{in.Dst, in.Src1, in.Src2} {
			if err := bw.WriteByte(byte(r.Kind)<<4 | r.Idx); err != nil {
				return err
			}
		}
		if err := putUvarint(uint64(in.VL)); err != nil {
			return err
		}
		if err := putVarint(in.Stride - prevStride); err != nil {
			return err
		}
		prevStride = in.Stride
		if err := putVarint(int64(in.Base) - int64(prevBase)); err != nil {
			return err
		}
		prevBase = in.Base
	}
	return bw.Flush()
}

// assertMatchesOracle fails t unless Write and writeOracle encode s to the
// same bytes.
func assertMatchesOracle(t *testing.T, s *Slice) {
	t.Helper()
	var got, want bytes.Buffer
	if err := Write(&got, s); err != nil {
		t.Fatal(err)
	}
	if err := writeOracle(&want, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write's %d bytes differ from the reference encoder's %d", got.Len(), want.Len())
	}
}

// blockWriter records the size of every Write call.
type blockWriter struct{ sizes []int }

func (w *blockWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

func TestWriteMatchesOracle(t *testing.T) {
	assertMatchesOracle(t, &Slice{TraceName: "empty"})
	assertMatchesOracle(t, &Slice{TraceName: "sample", Insts: sampleInsts()})
	// Long enough to span several blocks, with a name long enough to need a
	// multi-byte length.
	big := &Slice{TraceName: strings.Repeat("n", 300), Insts: loopInsts(50_000)}
	assertMatchesOracle(t, big)

	var w blockWriter
	if err := Write(&w, big); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < 2 {
		t.Fatalf("%d writes, want several blocks", len(w.sizes))
	}
	for i, n := range w.sizes {
		if n > writeBlock || (i < len(w.sizes)-1 && n < writeBlock-maxInstBytes) {
			t.Errorf("write %d of %d bytes, want blocks of about %d", i, n, writeBlock)
		}
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteReportsWriterError(t *testing.T) {
	for _, n := range []int{0, 50_000} {
		if err := Write(failWriter{}, &Slice{TraceName: "x", Insts: loopInsts(n)}); err != io.ErrClosedPipe {
			t.Errorf("%d instructions: err = %v, want %v", n, err, io.ErrClosedPipe)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	s := &Slice{TraceName: "bench", Insts: loopInsts(50_000)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/inst")
}

func BenchmarkHash(b *testing.B) {
	s := &Slice{TraceName: "bench", Insts: loopInsts(50_000)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Hash(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/inst")
}
