package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"decvec/internal/isa"
)

// Binary trace serialization — the role Dixie's trace files played in the
// paper's methodology: traces are generated once, written to disk, and
// replayed into the simulators any number of times.
//
// Format: a magic header, the trace name, the instruction count, then one
// varint-encoded record per instruction. Sequence numbers are implicit
// (dense from zero), base addresses and strides are delta-encoded against
// the previous memory reference, and VL values are encoded directly —
// loop-structured traces compress to a few bytes per instruction.

// binaryMagic identifies the file format and its version.
const binaryMagic = "DVTR1\n"

// flag bits of the per-instruction header byte that follows class/opcode.
const (
	flagSpill = 1 << 0
	flagBBEnd = 1 << 1
)

// writeBlock is the size of the blocks Write hands to its writer.
const writeBlock = 64 << 10

// maxInstBytes bounds one encoded instruction: the six header bytes and
// three varints.
const maxInstBytes = 6 + 3*binary.MaxVarintLen64

// Write serializes the trace to w. It appends the encoding to one buffer
// and hands it to w in blocks of about 64 KiB.
func Write(w io.Writer, s *Slice) error {
	buf := make([]byte, 0, writeBlock)
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(s.TraceName)))
	buf = append(buf, s.TraceName...)
	buf = binary.AppendUvarint(buf, uint64(len(s.Insts)))
	var prevBase uint64
	var prevStride int64
	for i := range s.Insts {
		if len(buf) > writeBlock-maxInstBytes {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		in := &s.Insts[i]
		flags := byte(0)
		if in.Spill {
			flags |= flagSpill
		}
		if in.BBEnd {
			flags |= flagBBEnd
		}
		buf = append(buf, byte(in.Class), byte(in.Op), flags,
			regByte(in.Dst), regByte(in.Src1), regByte(in.Src2))
		buf = binary.AppendUvarint(buf, uint64(in.VL))
		buf = binary.AppendVarint(buf, in.Stride-prevStride)
		buf = binary.AppendVarint(buf, int64(in.Base)-int64(prevBase))
		prevStride, prevBase = in.Stride, in.Base
	}
	_, err := w.Write(buf)
	return err
}

// regByte packs a register into one byte: kind in the high nibble, index
// in the low.
func regByte(r isa.Reg) byte { return byte(r.Kind)<<4 | r.Idx }

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Slice, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: name: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: count: %w", err)
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: implausible instruction count %d", count)
	}
	// Cap the preallocation: a hostile header must not allocate gigabytes
	// before the (then truncated) body fails to parse.
	prealloc := count
	if prealloc > 1<<16 {
		prealloc = 1 << 16
	}
	s := &Slice{TraceName: string(name), Insts: make([]isa.Inst, 0, prealloc)}
	var prevBase uint64
	var prevStride int64
	for i := uint64(0); i < count; i++ {
		var hdr [6]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("trace: instruction %d header: %w", i, err)
		}
		in := isa.Inst{
			Seq:   int64(i),
			Class: isa.Class(hdr[0]),
			Op:    isa.Opcode(hdr[1]),
			Spill: hdr[2]&flagSpill != 0,
			BBEnd: hdr[2]&flagBBEnd != 0,
		}
		regs := [3]*isa.Reg{&in.Dst, &in.Src1, &in.Src2}
		for j, b := range hdr[3:6] {
			regs[j].Kind = isa.RegKind(b >> 4)
			regs[j].Idx = b & 0x0f
		}
		vl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: instruction %d VL: %w", i, err)
		}
		if vl > isa.MaxVL {
			return nil, fmt.Errorf("trace: instruction %d VL %d out of range", i, vl)
		}
		in.VL = int(vl)
		dStride, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: instruction %d stride: %w", i, err)
		}
		in.Stride = prevStride + dStride
		prevStride = in.Stride
		dBase, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: instruction %d base: %w", i, err)
		}
		in.Base = uint64(int64(prevBase) + dBase)
		prevBase = in.Base
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("trace: instruction %d: %w", i, err)
		}
		s.Insts = append(s.Insts, in)
	}
	return s, nil
}
