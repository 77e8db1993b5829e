package sweep

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"strconv"

	"decvec/internal/sim"
)

// The /v1/sweep wire protocol, defined once: the remote executor encodes
// Requests and decodes Rows, and dvad (internal/server) decodes Requests and
// encodes Rows with these same types. The serving layer imports sweep, never
// the reverse, so the layer DAG stays acyclic.

// Request is the one /v1/sweep body: an explicit cell list. The coordinator
// sends each worker the cells its shard owns, which need not form any
// rectangular grid; a grid reaches dvad only through dvasweep's plan.
type Request struct {
	Cells []WireCell `json:"cells"`
	// TimeoutMs lowers the worker's request timeout for this request; it
	// can never raise it. 0 keeps the worker default.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// WireCell is one cell of a Request, by the raw dimension values of a Cell
// (0 = the worker's default queue size).
type WireCell struct {
	Program string `json:"program"`
	Arch    string `json:"arch"`
	Latency int64  `json:"latency"`
	LoadQ   int    `json:"loadq,omitempty"`
	StoreQ  int    `json:"storeq,omitempty"`
}

// Row is one line of the NDJSON /v1/sweep reply. Rows arrive in completion
// order, one per requested cell, carrying either the canonical binary result
// encoding (the simcache payload format, so a distributed merge is
// byte-identical to a local run) or that cell's error. The final row has
// Done set and carries the worker's suite-lifetime simulation count and
// cache counters; a client that never sees it knows the stream broke and
// which cells (by index) are still owed.
type Row struct {
	I      int     `json:"i"`
	Result Payload `json:"result,omitempty"` // canonical sim.EncodeResult payload
	Error  string  `json:"error,omitempty"`

	Done        bool  `json:"done,omitempty"`
	Simulations int64 `json:"simulations,omitempty"`
	CacheHits   int64 `json:"cacheHits,omitempty"`
	CacheMisses int64 `json:"cacheMisses,omitempty"`
}

// Payload is a row's canonical result encoding. It encodes as any []byte
// does, a base64 string; decoding appends into the capacity it already
// has, so a coordinator that reuses one Row per stream allocates no buffer
// per row.
type Payload []byte

// UnmarshalJSON decodes a base64 string into p's own capacity. Any other
// value, and a string with escapes (encoding/json never writes one for
// base64), goes through encoding/json's []byte decoding, so p always ends
// up as a []byte field would.
func (p *Payload) UnmarshalJSON(data []byte) error {
	if n := len(data); n >= 2 && data[0] == '"' && data[n-1] == '"' && bytes.IndexByte(data, '\\') < 0 {
		b, err := base64.StdEncoding.AppendDecode((*p)[:0], data[1:n-1])
		*p = b
		return err
	}
	return json.Unmarshal(data, (*[]byte)(p))
}

// AppendResultRow appends the NDJSON line of a successful cell, byte for
// byte what json.Encoder writes for Row{I: i, Result: payload}, without
// reflection or a base64 copy of the payload.
func AppendResultRow(dst []byte, i int, payload []byte) []byte {
	b := append(dst, `{"i":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	if len(payload) > 0 { // omitempty
		b = append(b, `,"result":"`...)
		b = base64.StdEncoding.AppendEncode(b, payload)
		b = append(b, '"')
	}
	return append(b, "}\n"...)
}

// wire is the cell's Request form.
func (c Cell) wire() WireCell {
	return WireCell{
		Program: c.Program.Name,
		Arch:    sim.ArchName(string(c.Arch), c.Cfg.Bypass),
		Latency: c.Latency,
		LoadQ:   c.LoadQ,
		StoreQ:  c.StoreQ,
	}
}
