package orb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Protocol constants for the framed request/reply wire protocol.
const (
	protoMagic   uint32 = 0x494F5242 // "IORB"
	protoVersion uint8  = 1

	msgRequest uint8 = 1
	msgReply   uint8 = 2
	msgError   uint8 = 3

	// maxFrameLen bounds a whole frame to guard against corruption.
	maxFrameLen = 64 << 20
)

// frame is one protocol message. A frame read off the wire lives in the
// caller's variable; only its body comes from a pool.
type frame struct {
	kind  uint8
	reqID uint64
	// request fields
	key string
	op  string
	// error fields
	code ErrorCode
	msg  string
	// body is the request or reply payload. readFrame reads it into a whole
	// buffer from getBuf (nil when empty), which the reader releases with
	// putBuf or hands on: a reply's goes to the caller (Invoker).
	body []byte
}

// bufPool recycles frame bodies, each boxed in a *[]byte so that a Put does
// not allocate a slice header; boxPool keeps the emptied boxes for putBuf.
var (
	bufPool sync.Pool
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

// getBuf returns a length-n byte slice, reusing pooled capacity when it can,
// or nil when n is 0. A pooled buffer too small for n stays in the pool for
// a smaller frame, and getBuf tries one more: sync.Pool hands out the buffer
// put last first, so a small one just put back would otherwise answer every
// larger frame's Get while the buffers that fit sit behind it.
func getBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	bp, _ := bufPool.Get().(*[]byte)
	if bp != nil && cap(*bp) < n {
		small := bp
		bp, _ = bufPool.Get().(*[]byte)
		bufPool.Put(small)
		if bp != nil && cap(*bp) < n {
			bufPool.Put(bp)
			bp = nil
		}
	}
	if bp == nil {
		return make([]byte, n) //lint:alloc pool miss
	}
	b := (*bp)[:n]
	*bp = nil
	boxPool.Put(bp)
	return b
}

// putBuf recycles b for a future getBuf. Oversized buffers are dropped.
func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	bufPool.Put(bp)
}

// writeFrame serializes f with a length prefix onto w as a single Write.
//
// Layout: u32 totalLen | u32 magic | u8 version | u8 kind | u64 reqID |
// kind-specific fields | bytes body.
func writeFrame(w io.Writer, f *frame) error {
	e := GetEncoder()
	defer PutEncoder(e)
	e.PutU32(0) // length prefix, patched below
	e.PutU32(protoMagic)
	e.PutU8(protoVersion)
	e.PutU8(f.kind)
	e.PutU64(f.reqID)
	switch f.kind {
	case msgRequest:
		e.PutString(f.key)
		e.PutString(f.op)
	case msgError:
		e.PutU32(uint32(f.code))
		e.PutString(f.msg)
	}
	e.PutBytes(f.body)
	binary.BigEndian.PutUint32(e.buf[:4], uint32(e.Len()-4))
	_, err := w.Write(e.Bytes())
	return err
}

// frameHeaderLen is the fixed part of a frame after its length prefix:
// magic, version, kind and request ID.
const frameHeaderLen = 4 + 1 + 1 + 8

// readFrame reads one length-prefixed frame from r into f. The header is
// parsed in r's own buffer, and the body read into a buffer of its own from
// getBuf, which f.body then holds. A request's key and op resolve through
// names when it is not nil, so a connection that keeps naming the same
// objects and operations reads them without allocating.
func readFrame(r *bufio.Reader, f *frame, names *names) error {
	fr := frameReader{r: r, left: 4}
	n := fr.u32()
	if fr.err != nil {
		return fr.err
	}
	if n > maxFrameLen {
		return fmt.Errorf("orb: frame length %d exceeds limit", n) //lint:alloc error slow path
	}
	fr.left = int(n)
	hdr := fr.peek(frameHeaderLen)
	if hdr == nil {
		return fr.err
	}
	if magic := binary.BigEndian.Uint32(hdr); magic != protoMagic {
		return fmt.Errorf("orb: bad magic %#x", magic) //lint:alloc error slow path
	}
	if v := hdr[4]; v != protoVersion {
		return fmt.Errorf("orb: unsupported protocol version %d", v) //lint:alloc error slow path
	}
	*f = frame{kind: hdr[5], reqID: binary.BigEndian.Uint64(hdr[6:])}
	fr.skip(frameHeaderLen)
	switch f.kind {
	case msgRequest:
		f.key = fr.string(names)
		f.op = fr.string(names)
	case msgReply:
	case msgError:
		f.code = ErrorCode(fr.u32())
		f.msg = fr.string(nil)
	default:
		return fmt.Errorf("orb: unknown message kind %d", f.kind) //lint:alloc error slow path
	}
	f.body = fr.body()
	fr.skip(fr.left) // bytes past the body, which no writer sends
	if fr.err != nil {
		putBuf(f.body)
		f.body = nil
		return fr.err
	}
	return nil
}

// frameReader reads the fields of one frame from a connection's buffered
// reader, failing as truncated past the frame's declared length. The first
// error sticks, as a Decoder's does.
type frameReader struct {
	r    *bufio.Reader
	left int // bytes of the frame not yet read
	err  error
}

// peek returns the next n bytes of the frame in r's buffer without
// consuming them, or nil after an error. n must fit r's buffer.
func (fr *frameReader) peek(n int) []byte {
	if fr.err != nil {
		return nil
	}
	if n > fr.left {
		fr.err = ErrTruncated
		return nil
	}
	b, err := fr.r.Peek(n)
	if err != nil {
		fr.err = err
		return nil
	}
	return b
}

// skip consumes n bytes of the frame.
func (fr *frameReader) skip(n int) {
	if fr.err != nil {
		return
	}
	if _, err := fr.r.Discard(n); err != nil {
		fr.err = err
		return
	}
	fr.left -= n
}

// u32 reads a big-endian uint32.
func (fr *frameReader) u32() uint32 {
	b := fr.peek(4)
	if b == nil {
		return 0
	}
	v := binary.BigEndian.Uint32(b)
	fr.skip(4)
	return v
}

// length reads a u32 length prefix and checks it against MaxStringLen and
// what is left of the frame.
func (fr *frameReader) length() int {
	n := fr.u32()
	if fr.err != nil {
		return 0
	}
	if n > MaxStringLen {
		fr.err = fmt.Errorf("orb: length %d exceeds limit", n) //lint:alloc error slow path
		return 0
	}
	if int(n) > fr.left {
		fr.err = ErrTruncated
		return 0
	}
	return int(n)
}

// string reads a length-prefixed string, resolved through names when it is
// not nil.
func (fr *frameReader) string(names *names) string {
	n := fr.length()
	if fr.err != nil || n == 0 {
		return ""
	}
	if n > fr.r.Size() {
		b := make([]byte, n) //lint:alloc a string longer than the read buffer
		if _, err := io.ReadFull(fr.r, b); err != nil {
			fr.err = err
			return ""
		}
		fr.left -= n
		return string(b) //lint:alloc a string longer than the read buffer
	}
	b := fr.peek(n)
	if b == nil {
		return ""
	}
	s := names.resolve(b)
	fr.skip(n)
	return s
}

// body reads the length-prefixed payload into a buffer from getBuf.
func (fr *frameReader) body() []byte {
	n := fr.length()
	if fr.err != nil || n == 0 {
		return nil
	}
	b := getBuf(n)
	if _, err := io.ReadFull(fr.r, b); err != nil {
		putBuf(b)
		fr.err = err
		return nil
	}
	fr.left -= n
	return b
}

// names holds the object keys and operation names one server connection's
// requests have carried, so that the next request naming one of them reuses
// the string instead of allocating its own, as protocol's knownString does
// for a node's identity. It keeps at most maxNames: a peer that names ever
// new ones costs an allocation each, not memory.
type names []string

const maxNames = 32

// resolve returns the string b spells, reusing a held one; a nil ns holds
// none.
func (ns *names) resolve(b []byte) string {
	if ns == nil {
		return string(b) //lint:alloc no names held
	}
	for _, s := range *ns {
		if string(b) == s { //lint:alloc a comparison, which the compiler makes without a copy
			return s
		}
	}
	s := string(b) //lint:alloc the first request naming it
	if len(*ns) < maxNames {
		*ns = append(*ns, s) //lint:alloc the first request naming it
	}
	return s
}
