package report

import (
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"decvec/internal/sim"
)

// This file renders the recorded event stream as a chrome://tracing (Trace
// Event Format) file. The encoder appends every event into one reusable
// buffer and writes the buffer out as it fills, so a run costs a constant
// number of allocations however many events it recorded. Its bytes are
// those json.Marshal produced for the equivalent struct (field order name,
// ph, ts, dur, pid, tid, s, args; dur and s omitted when empty; args keys
// sorted), pinned by testdata/tef.sha256.

// tefBufSize is the encoder's buffer capacity; it writes the buffer out
// when less than tefSlack bytes remain, the size of a long event.
const (
	tefBufSize = 64 << 10
	tefSlack   = 512
)

// The bus gets its own timeline row below the per-processor ones.
const busTid = int(sim.NumProcs)

// tefBufs holds the encoders' buffers between calls, so a run rendered
// after another reuses its 64 KiB.
var tefBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, tefBufSize)
	return &b
}}

// WriteTraceEvents writes the recorded event stream of a run as a Trace
// Event Format JSON file loadable in chrome://tracing or Perfetto. One
// timeline thread per unit plus one for the address bus; queue occupancies
// become counter tracks; bypasses and flushes become instant events.
// Timestamps are simulated cycles (rendered as microseconds by the viewer).
// The output is buffered: w sees writes of about 64 KiB.
func WriteTraceEvents(w io.Writer, res *sim.Result, rec *sim.Recorder) error {
	bp := tefBufs.Get().(*[]byte)
	t := &tefEncoder{w: w, buf: (*bp)[:0]}
	t.buf = append(t.buf, `{"displayTimeUnit":"ns","traceEvents":[`...)

	// Metadata: name the process after the run, "Arch (Config)", and each
	// thread after its unit. The process name's two parts are escaped one
	// by one, which escapes the whole name alike: the text between them is
	// ASCII.
	t.head("", "process_name", "M", 0, 0, 0)
	t.buf = append(t.buf, `,"args":{"name":"`...)
	t.buf = appendJSONEscaped(t.buf, res.Arch)
	t.buf = append(t.buf, " ("...)
	t.buf = appendJSONEscaped(t.buf, res.Config.String())
	t.buf = append(t.buf, `)"}}`...)
	for p := sim.Proc(0); p < sim.NumProcs; p++ {
		t.head("", "thread_name", "M", 0, 0, int(p))
		t.stringArg("name", p.String())
		t.head("", "thread_sort_index", "M", 0, 0, int(p))
		t.intArg("sort_index", int64(p))
	}
	t.head("", "thread_name", "M", 0, 0, busTid)
	t.stringArg("name", "BUS")
	t.head("", "thread_sort_index", "M", 0, 0, busTid)
	t.intArg("sort_index", int64(busTid))

	rec.Each(t.event)
	t.buf = append(t.buf, "]}\n"...)
	t.flush()
	*bp = t.buf
	tefBufs.Put(bp)
	return t.err
}

// tefEncoder appends Trace Event Format entries to buf and writes buf to w
// whenever it fills. The first write error sticks and silences the rest.
type tefEncoder struct {
	w   io.Writer
	buf []byte
	n   int // entries appended so far
	err error
}

// event appends one recorded event; kinds without a rendering are skipped.
func (t *tefEncoder) event(e *sim.Event) {
	switch e.Kind {
	case sim.EvIssue:
		t.head("", e.Label, "X", e.Cycle, 1, int(e.Proc))
		t.intArg("seq", e.Seq)
	case sim.EvStall:
		t.head("stall ", e.Reason.String(), "X", e.Cycle, e.N, int(e.Proc))
		t.buf = append(t.buf, '}')
	case sim.EvQueuePush, sim.EvQueuePop:
		t.head("", e.Queue, "C", e.Cycle, 0, 0)
		t.intArg("len", e.N)
	case sim.EvBusGrant:
		t.head("bus ", e.Proc.String(), "X", e.Cycle, e.N, busTid)
		t.intArg("seq", e.Seq)
	case sim.EvBypass:
		t.head("", "bypass", "i", e.Cycle, 0, int(e.Proc))
		t.buf = append(t.buf, `,"s":"t","args":{"elems":`...)
		t.buf = strconv.AppendInt(t.buf, e.N, 10)
		t.buf = append(t.buf, `,"seq":`...)
		t.buf = strconv.AppendInt(t.buf, e.Seq, 10)
		t.buf = append(t.buf, "}}"...)
	case sim.EvFlush:
		t.head("", "flush", "i", e.Cycle, 0, int(e.Proc))
		t.buf = append(t.buf, `,"s":"t"`...)
		t.intArg("seq", e.Seq)
	default:
		return
	}
	if cap(t.buf)-len(t.buf) < tefSlack {
		t.flush()
	}
}

// head opens an entry with every field up to tid, preceded by the array
// separator unless it is the first entry. The entry's name is prefix+name;
// prefix must need no JSON escaping. dur is omitted when zero.
func (t *tefEncoder) head(prefix, name, ph string, ts, dur int64, tid int) {
	b := t.buf
	if t.n > 0 {
		b = append(b, ",\n"...)
	}
	t.n++
	b = append(b, `{"name":"`...)
	b = append(b, prefix...)
	b = appendJSONEscaped(b, name)
	b = append(b, `","ph":"`...)
	b = append(b, ph...)
	b = append(b, `","ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	if dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, dur, 10)
	}
	b = append(b, `,"pid":1,"tid":`...)
	t.buf = strconv.AppendInt(b, int64(tid), 10)
}

// intArg closes an entry with a one-key integer args object.
func (t *tefEncoder) intArg(key string, v int64) {
	t.buf = append(t.buf, `,"args":{"`...)
	t.buf = append(t.buf, key...)
	t.buf = append(t.buf, `":`...)
	t.buf = strconv.AppendInt(t.buf, v, 10)
	t.buf = append(t.buf, "}}"...)
}

// stringArg closes an entry with a one-key string args object.
func (t *tefEncoder) stringArg(key, v string) {
	t.buf = append(t.buf, `,"args":{"`...)
	t.buf = append(t.buf, key...)
	t.buf = append(t.buf, `":`...)
	t.buf = appendJSONString(t.buf, v)
	t.buf = append(t.buf, "}}"...)
}

// flush writes the buffer out and empties it.
func (t *tefEncoder) flush() {
	if t.err == nil {
		_, t.err = t.w.Write(t.buf)
	}
	t.buf = t.buf[:0]
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal escaped exactly as
// encoding/json escapes it, HTML escaping included: `qmov.av->v` becomes
// "qmov.av-\u003ev".
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONEscaped(dst, s)
	return append(dst, '"')
}

// appendJSONEscaped appends the escaped body of s's JSON string literal,
// without the quotes. It follows encoding/json: ", \ and the control bytes
// get backslash escapes (\b \f \n \r \t short, the rest \u00XX); <, > and &
// become \u003c, \u003e and \u0026; invalid UTF-8 becomes \ufffd; U+2028
// and U+2029 are escaped; everything else is copied.
func appendJSONEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
