// Package orb implements InteGrade's lightweight object request broker — the
// stand-in for the CORBA substrate the paper builds on (UIC-CORBA on client
// nodes, JacORB on the cluster manager). It provides:
//
//   - a compact binary wire encoding (Encoder/Decoder), analogous to CDR;
//   - object references naming a transport endpoint plus an object key,
//     analogous to IORs;
//   - an object adapter dispatching operations to registered servants;
//   - a TCP transport that reuses connections, one call on a connection at
//     a time, and an in-process loopback transport (with optional fault
//     injection) that the simulator uses for deterministic large-scale
//     experiments.
//
// Higher-level CORBA-like services (Naming, Trading) live in their own
// packages and are ordinary servants on this ORB.
package orb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// MaxStringLen bounds decoded string and byte-slice lengths. Oversized values
// indicate corruption or abuse.
const MaxStringLen = 16 << 20

// ErrTruncated is returned by Decoder reads past the end of the buffer.
var ErrTruncated = errors.New("orb: truncated message")

// Encoder serializes primitive values into a growable buffer. The zero value
// is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer. The slice aliases the encoder's internal
// storage; callers must not retain it across further Put calls.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the buffer, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow ensures capacity for n more bytes, so a message whose size is known
// costs at most one allocation instead of append's growth sequence, and none
// in a pooled encoder whose buffer is already large enough.
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) >= n {
		return
	}
	buf := make([]byte, len(e.buf), len(e.buf)+n)
	copy(buf, e.buf)
	e.buf = buf
}

// maxPooledBuf bounds the capacity of buffers kept by the wire pools. A
// rare giant frame must not pin megabytes inside a sync.Pool forever.
const maxPooledBuf = 64 << 10

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns an empty Encoder from the pool, with the buffer it had
// when it was put back. The hot path — frame serialization, client stubs
// building requests, servants building replies — uses pooled encoders so a
// steady-state invocation allocates no buffer to encode into. Pair with
// PutEncoder; see DESIGN.md §13 for the ownership rules.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns e to the pool, buffer included. The caller must not use
// e or any slice obtained from e.Bytes afterwards. Oversized buffers are
// dropped rather than pooled.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.buf) > maxPooledBuf {
		return
	}
	e.Reset()
	encoderPool.Put(e)
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// getDecoder returns a pooled Decoder positioned at the start of buf.
func getDecoder(buf []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.buf, d.off, d.err = buf, 0, nil
	return d
}

// putDecoder releases d to the pool, dropping its buffer reference.
func putDecoder(d *Decoder) {
	d.buf, d.off, d.err = nil, 0, nil
	decoderPool.Put(d)
}

// PutU8 appends a byte.
//
//lint:hotpath alloc=1
func (e *Encoder) PutU8(v uint8) { e.buf = append(e.buf, v) }

// PutBool appends a boolean as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutU8(1)
	} else {
		e.PutU8(0)
	}
}

// PutU32 appends a big-endian uint32.
//
//lint:hotpath alloc=1
func (e *Encoder) PutU32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutU64 appends a big-endian uint64.
//
//lint:hotpath alloc=1
func (e *Encoder) PutU64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutI64 appends a big-endian int64.
func (e *Encoder) PutI64(v int64) { e.PutU64(uint64(v)) }

// PutInt appends an int as int64.
func (e *Encoder) PutInt(v int) { e.PutI64(int64(v)) }

// PutF64 appends an IEEE-754 float64.
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

// PutString appends a length-prefixed UTF-8 string.
//
//lint:hotpath alloc=2
func (e *Encoder) PutString(v string) {
	e.PutU32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// PutBytes appends a length-prefixed byte slice.
//
//lint:hotpath alloc=2
func (e *Encoder) PutBytes(v []byte) {
	e.PutU32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// PutTime appends a time instant with nanosecond precision (UTC).
func (e *Encoder) PutTime(t time.Time) {
	e.PutI64(t.Unix())
	e.PutU32(uint32(t.Nanosecond()))
}

// PutDuration appends a duration.
func (e *Encoder) PutDuration(d time.Duration) { e.PutI64(int64(d)) }

// PutStrings appends a length-prefixed slice of strings, growing the buffer
// once for all of them.
//
//lint:hotpath alloc=3
func (e *Encoder) PutStrings(vs []string) {
	n := 4
	for _, v := range vs {
		n += 4 + len(v)
	}
	e.Grow(n)
	e.PutU32(uint32(len(vs)))
	for _, v := range vs {
		e.PutString(v)
	}
}

// Decoder reads values sequentially from a buffer.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over buf. The Decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error encountered, if any. All Get methods
// return zero values after an error, so a single Err check at the end of a
// decode sequence suffices.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a big-endian uint32.
//
//lint:hotpath alloc=0 locks=0 block=0
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
//
//lint:hotpath alloc=0 locks=0 block=0
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads an IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
//
//lint:hotpath alloc=1
func (d *Decoder) String() string {
	n := d.U32()
	if d.err != nil {
		return ""
	}
	if n > MaxStringLen {
		d.err = fmt.Errorf("orb: string length %d exceeds limit", n) //lint:alloc error slow path
		return ""
	}
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a length-prefixed byte slice. The result is a copy.
//
//lint:hotpath alloc=1
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen {
		d.err = fmt.Errorf("orb: bytes length %d exceeds limit", n) //lint:alloc error slow path
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// RawString reads a length-prefixed string or byte-slice field as raw bytes,
// without copying. The result aliases the decoder's buffer: the caller must
// treat it as read-only and must not retain it past the buffer's lifetime —
// for a servant, past the Dispatch call; for a reply decoder, past DecodeRep
// (DESIGN.md §13). Compare with string(b) == "lit" (which the compiler keeps
// allocation-free) or bytes.Equal; use String or Bytes when the value is
// kept.
//
//lint:hotpath alloc=0 locks=0 block=0
func (d *Decoder) RawString() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen {
		d.err = fmt.Errorf("orb: string length %d exceeds limit", n) //lint:alloc error slow path
		return nil
	}
	return d.take(int(n))
}

// Time reads a time instant in UTC.
func (d *Decoder) Time() time.Time {
	sec := d.I64()
	nsec := d.U32()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Duration reads a duration.
func (d *Decoder) Duration() time.Duration { return time.Duration(d.I64()) }

// Count reads the u32 element count of a slice the caller sizes from it, and
// fails as truncated unless that many elements of at least elemMin (≥ 1)
// encoded bytes each fit in what is left: a frame cannot make its decoder
// allocate more than its own length warrants.
//
//lint:hotpath alloc=0 locks=0 block=0
func (d *Decoder) Count(elemMin int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemMin) > uint64(d.Remaining()) {
		d.err = ErrTruncated
		return 0
	}
	return int(n)
}

// Strings reads a length-prefixed slice of strings.
//
//lint:hotpath alloc=3
func (d *Decoder) Strings() []string {
	n := d.Count(4)
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}
