package flowtrace

import (
	"bytes"
	"testing"
)

// FuzzContextText: any text the decoder accepts re-encodes (lowercase)
// to a form that decodes to the same context.
func FuzzContextText(f *testing.F) {
	f.Add(testContext().AppendText(nil))
	f.Add(bytes.ToUpper(testContext().AppendText(nil)))
	f.Add(make([]byte, TextSize))
	f.Add([]byte("zz"))
	f.Fuzz(func(t *testing.T, b []byte) {
		c, ok := DecodeText(b)
		if !ok {
			return
		}
		text := c.AppendText(nil)
		if !bytes.Equal(text, bytes.ToLower(b)) {
			t.Fatalf("AppendText = %q, want %q", text, bytes.ToLower(b))
		}
		if got, ok := DecodeText(text); !ok || got != c {
			t.Fatalf("re-decode = %+v, %v; want %+v", got, ok, c)
		}
	})
}

// FuzzContextBinary: any wire context the decoder accepts re-encodes to
// the same 24 bytes.
func FuzzContextBinary(f *testing.F) {
	var wire [WireSize]byte
	testContext().EncodeBinary(wire[:])
	f.Add(wire[:])
	f.Add(make([]byte, WireSize))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, ok := DecodeBinary(b)
		if !ok {
			return
		}
		var out [WireSize]byte
		c.EncodeBinary(out[:])
		if !bytes.Equal(out[:], b[:WireSize]) {
			t.Fatalf("EncodeBinary = %x, want %x", out, b[:WireSize])
		}
	})
}
