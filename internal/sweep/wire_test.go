package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRowResult holds the coordinator's reused-row payload decoding to
// encoding/json's []byte decoding: for any JSON value as a row's "result"
// and any bytes left in the row from a previous line, both must fail
// together or yield the same bytes. Escaped strings (\/ or \u0041), null,
// arrays, bad base64 and bad padding take the fallback or the error path;
// testdata/fuzz/FuzzRowResult holds one input of each.
func FuzzRowResult(f *testing.F) {
	for _, v := range []string{
		`"RFZSRVMxCgNSRUY="`, `""`, `null`, `"\/\/8="`, `"AAAA"`,
		`"QUJD"`, `"QUI="`, `"QUI"`, `"QU=I"`, `"Q!=="`, `"QUJ\nD"`, `"\u0041AAA"`,
		`[65,66]`, `[300]`, `12`, `{}`, `"\ud800"`, `"QUJD" `, `"é"`,
	} {
		f.Add(v, []byte("left from the previous row"))
	}
	f.Fuzz(func(t *testing.T, value string, prev []byte) {
		doc := []byte(`{"i":3,"result":` + value + `}`)
		var want struct {
			Result []byte `json:"result"`
		}
		werr := json.Unmarshal(doc, &want)
		row := Row{Result: append(Payload(nil), prev...)}
		row = Row{Result: row.Result[:0]} // as Remote.post resets it per line
		gerr := json.Unmarshal(doc, &row)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("result %s: encoding/json says %v, Payload says %v", value, werr, gerr)
		}
		if werr == nil && !bytes.Equal(want.Result, row.Result) {
			t.Fatalf("result %s: encoding/json decodes %q, Payload %q", value, want.Result, row.Result)
		}
	})
}
