package trace

import (
	"bytes"
	"testing"
)

// FuzzRead hardens the binary trace parser: arbitrary input must either
// parse into a valid trace or return an error — never panic, never return
// instructions that fail validation.
func FuzzRead(f *testing.F) {
	// Seed with a real encoding and a few mutations.
	var buf bytes.Buffer
	if err := Write(&buf, &Slice{TraceName: "seed", Insts: sampleInsts()}); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(binaryMagic))
	f.Add([]byte("DVTR1\n\x03abc\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that parses must be a valid trace.
		if err := Validate(s); err != nil {
			t.Fatalf("Read accepted an invalid trace: %v", err)
		}
	})
}

// FuzzRoundTrip checks that every valid single instruction survives
// encode/decode exactly, and that Write encodes it to the reference
// encoder's bytes.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(16), int64(2), uint64(0x1000), false)
	f.Fuzz(func(t *testing.T, class, op, vl uint8, stride int64, base uint64, spill bool) {
		src := &Slice{TraceName: "fz", Insts: sampleInsts()}
		// Mutate the vector load with fuzzed fields, keeping it valid.
		in := &src.Insts[1]
		in.VL = int(vl%128) + 1
		in.Stride = stride
		in.Base = base
		in.Spill = spill
		var buf, want bytes.Buffer
		if err := Write(&buf, src); err != nil {
			t.Fatal(err)
		}
		if err := writeOracle(&want, src); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Fatal("Write's bytes differ from the reference encoder's")
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		for i := range src.Insts {
			if got.Insts[i] != src.Insts[i] {
				t.Fatalf("instruction %d changed in round trip", i)
			}
		}
	})
}
