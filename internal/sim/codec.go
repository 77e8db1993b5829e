package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Versioned binary codec for Result — the on-disk representation behind the
// persistent simulation cache (internal/simcache). The encoding is fully
// deterministic: equal results always produce identical bytes, so cache
// verification can compare encodings instead of walking the struct.
//
// Canonicalization: Config.SlowTick is encoded as false. The fast and slow
// tick modes are bit-identical (see DESIGN.md "Idle-skip advancement"), the
// cache keys normalize SlowTick out, and a canonical encoding keeps
// byte-comparisons between a stored result and a re-simulated one meaningful
// whichever mode produced them.
//
// Versioning: the magic carries the format version. The codec only ever needs
// to read bytes written by the same model fingerprint (a fingerprint change
// invalidates every cache key), so a format change simply bumps the magic and
// old entries become cache misses.
//
// Shape: AppendResult appends to a caller's buffer and DecodeResultBytes reads
// in place from a slice; the io.Writer/io.Reader forms wrap them.

// resultMagic identifies the serialized-result format and its version.
const resultMagic = "DVRES1\n"

// Decoder sanity caps: a corrupt or hostile header must not drive
// allocations beyond what a genuine result could ever hold. Every count is
// also bounded by the bytes left, since each counted item takes at least one.
const (
	maxCodecName    = 256     // queue/arch name length
	maxCodecBuckets = 1 << 24 // histogram buckets
	maxCodecQueues  = 1 << 12 // queue stats per result
)

// codecNames are the arch and queue names the cores write into a Result.
// The decoder returns these constants instead of copying the name bytes;
// any other name still decodes, as a copy.
var codecNames = [...]string{
	"REF", "DVA", "BYP", "OOO",
	"APIQ", "SPIQ", "VPIQ", "AVDQ", "VADQ", "ASDQ", "SADQ",
	"SVDQ", "VSDQ", "SAAQ", "SSAQ", "VSAQ", "AFBQ", "SFBQ",
}

// EncodeResult writes the canonical binary encoding of r to w.
func EncodeResult(w io.Writer, r *Result) error {
	_, err := w.Write(AppendResult(make([]byte, 0, 1024), r))
	return err
}

// AppendResult appends the canonical binary encoding of r to dst and
// returns the extended buffer; into a buffer with room it does not allocate.
func AppendResult(dst []byte, r *Result) []byte {
	b := append(dst, resultMagic...)
	b = appendString(b, r.Arch)
	// Config, every field in declaration order with SlowTick canonicalized
	// to false. codec_test pins the field count so a new Config field
	// cannot be forgotten here silently.
	c := &r.Config
	for _, v := range [...]int64{c.MemLatency, c.AddDepth, c.MulDepth, c.DivDepth,
		c.SqrtDepth, c.QMovDepth, c.ChainDelay, int64(c.ScalarCacheLines),
		int64(c.ScalarCacheLineBytes), int64(c.IQSize), int64(c.ScalarQSize),
		int64(c.AVDQSize), int64(c.VADQSize), int64(c.VSAQSize), int64(c.MemPorts),
		int64(c.QMovUnits)} {
		b = binary.AppendVarint(b, v)
	}
	b = appendBool(b, c.Bypass)
	b = binary.AppendVarint(b, c.LatencyJitter)
	b = appendBool(b, false) // SlowTick, canonicalized

	b = binary.AppendVarint(b, r.Cycles)
	for _, v := range r.States.Cycles {
		b = binary.AppendVarint(b, v)
	}
	n := &r.Counts
	for _, v := range [...]int64{n.ScalarInsts, n.VectorInsts, n.VectorOps,
		n.BasicBlocks, n.SpillMemOps, n.MemInsts,
		r.Traffic.LoadElems, r.Traffic.StoreElems} {
		b = binary.AppendVarint(b, v)
	}
	b = appendHistogram(b, r.AVDQBusy)
	b = appendHistogram(b, r.VADQBusy)
	for _, v := range [...]int64{r.Bypasses, r.BypassedElems, r.Flushes,
		r.ScalarCacheHits, r.ScalarCacheMisses} {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(NumStallReasons))
	for _, v := range r.Stalls {
		b = binary.AppendVarint(b, v)
	}
	if r.Queues == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(len(r.Queues)))
	for i := range r.Queues {
		q := &r.Queues[i]
		b = appendString(b, q.Name)
		b = binary.AppendVarint(b, int64(q.Cap))
		b = binary.AppendVarint(b, q.Pushes)
		b = binary.AppendVarint(b, q.Pops)
		b = binary.AppendVarint(b, int64(q.Peak))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.MeanLen))
		b = binary.AppendVarint(b, q.FullCycles)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendHistogram(b []byte, h *Histogram) []byte {
	if h == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(append(b, 1), uint64(len(h.Buckets)))
	for _, c := range h.Buckets {
		b = binary.AppendVarint(b, c)
	}
	return binary.AppendVarint(b, h.Clamped)
}

// DecodeResult reads a result written by EncodeResult from r, to its end.
func DecodeResult(r io.Reader) (*Result, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sim: reading result: %w", err)
	}
	return DecodeResultBytes(b)
}

// DecodeResultBytes decodes a result written by AppendResult from exactly
// b. Any malformed input — truncation, bad magic, implausible lengths,
// trailing bytes — returns an error; the decoder never panics, so corrupt
// cache entries degrade into misses. The result shares no memory with b.
func DecodeResultBytes(b []byte) (*Result, error) {
	// One allocation holds the result and both histogram headers.
	blk := new(struct {
		res  Result
		hist [2]Histogram
	})
	if err := decodeResult(b, &blk.res, &blk.hist[0], &blk.hist[1]); err != nil {
		return nil, err
	}
	return &blk.res, nil
}

// CheckResultBytes reports whether b decodes, without decoding it: it is
// DecodeResultBytes's walk keeping no buckets, queues or names, so it
// accepts exactly what DecodeResultBytes accepts and does not allocate.
// The result cache checks every stored payload with it before handing the
// payload out undecoded.
func CheckResultBytes(b []byte) error {
	var res Result
	return decodeResult(b, &res, nil, nil)
}

// decodeResult decodes b into res, the histograms' buckets into h0 and h1.
// With nil histograms it only checks: histograms, queues and names are
// walked and dropped.
func decodeResult(b []byte, res *Result, h0, h1 *Histogram) error {
	if len(b) < len(resultMagic) || string(b[:len(resultMagic)]) != resultMagic {
		return fmt.Errorf("sim: bad result magic %q", b[:min(len(b), len(resultMagic))])
	}
	d := &resultDecoder{b: b[len(resultMagic):], check: h0 == nil}
	res.Arch = d.name()
	c := &res.Config
	for _, p := range [...]*int64{&c.MemLatency, &c.AddDepth, &c.MulDepth,
		&c.DivDepth, &c.SqrtDepth, &c.QMovDepth, &c.ChainDelay} {
		*p = d.varint()
	}
	for _, p := range [...]*int{&c.ScalarCacheLines, &c.ScalarCacheLineBytes,
		&c.IQSize, &c.ScalarQSize, &c.AVDQSize, &c.VADQSize, &c.VSAQSize,
		&c.MemPorts, &c.QMovUnits} {
		*p = int(d.varint())
	}
	c.Bypass = d.bool()
	c.LatencyJitter = d.varint()
	c.SlowTick = d.bool()

	res.Cycles = d.varint()
	for s := range res.States.Cycles {
		res.States.Cycles[s] = d.varint()
	}
	n := &res.Counts
	for _, p := range [...]*int64{&n.ScalarInsts, &n.VectorInsts, &n.VectorOps,
		&n.BasicBlocks, &n.SpillMemOps, &n.MemInsts,
		&res.Traffic.LoadElems, &res.Traffic.StoreElems} {
		*p = d.varint()
	}
	res.AVDQBusy = d.histogram(h0)
	res.VADQBusy = d.histogram(h1)
	for _, p := range [...]*int64{&res.Bypasses, &res.BypassedElems, &res.Flushes,
		&res.ScalarCacheHits, &res.ScalarCacheMisses} {
		*p = d.varint()
	}
	if n := d.count(1 << 8); d.err == nil && n != int(NumStallReasons) {
		return fmt.Errorf("sim: result has %d stall reasons, this model has %d", n, NumStallReasons)
	}
	for i := range res.Stalls {
		res.Stalls[i] = d.varint()
	}
	res.Queues = d.queues()
	if d.err != nil {
		return fmt.Errorf("sim: decoding result: %w", d.err)
	}
	// The encoding must end exactly here; trailing bytes mean a mismatched
	// writer and a checksum that no longer covers what we decoded.
	if len(d.b) != 0 {
		return errors.New("sim: trailing bytes after result")
	}
	return nil
}

// resultDecoder consumes b from the front. The first error sticks and
// empties b, so every later read fails too and the field decoders can
// chain without per-call error handling. A checking decoder reads every
// field but keeps no name, bucket or queue.
type resultDecoder struct {
	b     []byte
	err   error
	check bool
}

func (d *resultDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *resultDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.failVarint(n)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a length, bounded by max and by the bytes left.
func (d *resultDecoder) count(max int) int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.failVarint(n)
		return 0
	}
	d.b = d.b[n:]
	if v > uint64(max) || v > uint64(len(d.b)) {
		d.fail(fmt.Errorf("length %d exceeds cap %d or the %d bytes left", v, max, len(d.b)))
		return 0
	}
	return int(v)
}

// failVarint records why binary.Varint or Uvarint read n <= 0 bytes.
func (d *resultDecoder) failVarint(n int) {
	if n == 0 {
		d.fail(io.ErrUnexpectedEOF)
	} else {
		d.fail(errors.New("varint overflows a 64-bit integer"))
	}
}

func (d *resultDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *resultDecoder) bool() bool {
	switch b := d.byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("bad bool byte %d", b))
		return false
	}
}

// name reads a string, returning the codecNames constant it equals
// without allocating, or else a copy; a checking decoder returns "".
func (d *resultDecoder) name() string {
	n := d.count(maxCodecName)
	s := d.b[:n]
	d.b = d.b[n:]
	if d.check {
		return ""
	}
	for _, k := range codecNames {
		if string(s) == k {
			return k
		}
	}
	return string(s)
}

func (d *resultDecoder) float() float64 {
	if len(d.b) < 8 {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// histogram decodes into h and returns it, or nil for an absent histogram
// or a checking decoder.
func (d *resultDecoder) histogram(h *Histogram) *Histogram {
	if d.byte() == 0 {
		return nil
	}
	n := d.count(maxCodecBuckets)
	if d.err != nil {
		return nil
	}
	if d.check {
		for range n + 1 { // the buckets, then Clamped
			d.varint()
		}
		return nil
	}
	h.Buckets = make([]int64, n)
	for i := range h.Buckets {
		h.Buckets[i] = d.varint()
	}
	h.Clamped = d.varint()
	return h
}

func (d *resultDecoder) queues() []QueueStat {
	if d.byte() == 0 {
		return nil
	}
	n := d.count(maxCodecQueues)
	if d.err != nil {
		return nil
	}
	if d.check {
		var q QueueStat
		for range n {
			d.queue(&q)
		}
		return nil
	}
	qs := make([]QueueStat, n)
	for i := range qs {
		d.queue(&qs[i])
	}
	return qs
}

func (d *resultDecoder) queue(q *QueueStat) {
	q.Name = d.name()
	q.Cap = int(d.varint())
	q.Pushes = d.varint()
	q.Pops = d.varint()
	q.Peak = int(d.varint())
	q.MeanLen = d.float()
	q.FullCycles = d.varint()
}
