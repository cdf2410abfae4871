package orb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame asserts the frame reader never panics and never allocates
// absurd buffers on malformed input.
func FuzzReadFrame(f *testing.F) {
	// A valid request frame as a seed.
	var e Encoder
	e.PutU32(protoMagic)
	e.PutU8(protoVersion)
	e.PutU8(msgRequest)
	e.PutU64(7)
	e.PutString("key")
	e.PutString("op")
	e.PutBytes([]byte("payload"))
	var framed bytes.Buffer
	var lenbuf [4]byte
	binary.BigEndian.PutUint32(lenbuf[:], uint32(e.Len()))
	framed.Write(lenbuf[:])
	framed.Write(e.Bytes())
	f.Add(framed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xFF})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		parsed := new(frame)
		var ns names
		if err := readFrame(r, parsed, &ns); err != nil {
			return
		}
		// A successfully parsed frame must have a sane kind.
		switch parsed.kind {
		case msgRequest, msgReply, msgError:
		default:
			t.Fatalf("parsed frame with kind %d", parsed.kind)
		}
		// And must survive a write/read round trip unchanged.
		var buf bytes.Buffer
		if err := writeFrame(&buf, parsed); err != nil {
			t.Fatalf("re-encoding parsed frame: %v", err)
		}
		again := new(frame)
		if err := readFrame(bufio.NewReader(&buf), again, nil); err != nil {
			t.Fatalf("re-reading re-encoded frame: %v", err)
		}
		if again.kind != parsed.kind || again.reqID != parsed.reqID ||
			again.key != parsed.key || again.op != parsed.op ||
			again.code != parsed.code || again.msg != parsed.msg ||
			!bytes.Equal(again.body, parsed.body) {
			t.Fatalf("frame round trip mismatch: %+v != %+v", again, parsed)
		}
	})
}

// FuzzDecoder asserts arbitrary byte streams never panic the Decoder.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.String()
		_ = d.U64()
		_ = d.Strings()
		_ = d.Bytes()
		_ = d.Time()
		_ = d.Bool()
		_ = d.Err()
	})
}
