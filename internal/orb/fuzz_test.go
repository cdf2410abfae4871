package orb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzReadFrame asserts the frame reader never panics, never keeps a buffer
// larger than maxPooledBuf, and that a frame it parses survives a write/read
// round trip.
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
		var (
			in []byte
			ns names
		)
		err := readFrame(r, &in, parsed, &ns)
		if cap(in) > maxPooledBuf {
			t.Fatalf("connection kept a %d-byte frame buffer", cap(in))
		}
		if err != nil {
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
		if err := writeFrame(&buf, new(Encoder), parsed); err != nil {
			t.Fatalf("re-encoding parsed frame: %v", err)
		}
		again := new(frame)
		var againBuf []byte
		if err := readFrame(bufio.NewReader(&buf), &againBuf, again, nil); err != nil {
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

// FuzzDecoder asserts arbitrary byte streams never panic the Decoder,
// through the reads frame parsing uses (U8, U32, U64, RawString) and the
// copying ones bodies use.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
	var e Encoder
	e.PutU8(msgRequest)
	e.PutU32(protoMagic)
	e.PutString("key")
	e.PutString("hello")
	e.PutU64(7)
	e.PutStrings([]string{"a", "bb"})
	e.PutBytes([]byte("payload"))
	e.PutTime(time.Unix(1, 2))
	e.PutBool(true)
	f.Add(e.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.U8()
		_ = d.U32()
		_ = d.RawString()
		_ = d.String()
		_ = d.U64()
		_ = d.Strings()
		_ = d.Bytes()
		_ = d.Time()
		_ = d.Bool()
		_ = d.Err()
	})
}
