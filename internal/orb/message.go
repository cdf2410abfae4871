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
// caller's variable, and its body in the connection's frame buffer.
type frame struct {
	kind  uint8
	reqID uint64
	// request fields
	key string
	op  string
	// error fields
	code ErrorCode
	msg  string
	// body is the request or reply payload. readFrame leaves it in the
	// connection's frame buffer, so it is valid until the connection's next
	// readFrame: the server dispatches it there, and the client copies a
	// reply's into a buffer from getBuf for its caller (Invoker).
	body []byte
}

// bufPool recycles reply buffers, each boxed in a *[]byte so that a Put does
// not allocate a slice header; boxPool keeps the emptied boxes for putBuf.
var (
	bufPool sync.Pool
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

// getBuf returns a length-n byte slice, reusing pooled capacity when it can,
// or nil when n is 0. A pooled buffer too small for n stays in the pool for
// a smaller reply, and getBuf tries one more: sync.Pool hands out the buffer
// put last first, so a small one just put back would otherwise answer every
// larger reply's Get while the buffers that fit sit behind it.
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

// writeFrame serializes f with a length prefix into e, the connection's own
// encoder, and writes it onto w as a single Write. An encoder that a rare
// frame grew past maxPooledBuf drops its buffer afterwards, as the pools do.
//
// Layout: u32 totalLen | u32 magic | u8 version | u8 kind | u64 reqID |
// kind-specific fields | bytes body.
func writeFrame(w io.Writer, e *Encoder, f *frame) error {
	e.Reset()
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
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	return err
}

// readFrame reads one length-prefixed frame from r into f, through *buf: the
// connection's frame buffer, grown to fit. The length is checked before
// anything grows, the whole frame is read into the buffer, and a Decoder
// parses it, so f.body aliases the buffer until the next readFrame (a
// servant does not keep its request, DESIGN.md §13). A frame larger than
// maxPooledBuf is read into a buffer of its own, which the connection does
// not keep. A request's key and op resolve through names when it is not
// nil, so a connection that keeps naming the same objects and operations
// reads them without allocating.
func readFrame(r *bufio.Reader, buf *[]byte, f *frame, names *names) error {
	prefix, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	n := int(binary.BigEndian.Uint32(prefix))
	if n > maxFrameLen {
		return fmt.Errorf("orb: frame length %d exceeds limit", n) //lint:alloc error slow path
	}
	_, _ = r.Discard(4) // cannot fail: Peek has buffered the 4 bytes
	b := *buf
	if cap(b) < n {
		b = make([]byte, n) //lint:alloc a connection's first frame of its size, or one past maxPooledBuf
		if n <= maxPooledBuf {
			*buf = b
		}
	}
	b = b[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	d := Decoder{buf: b}
	magic, version := d.U32(), d.U8()
	*f = frame{kind: d.U8(), reqID: d.U64()}
	switch {
	case d.err != nil:
		return d.err
	case magic != protoMagic:
		return fmt.Errorf("orb: bad magic %#x", magic) //lint:alloc error slow path
	case version != protoVersion:
		return fmt.Errorf("orb: unsupported protocol version %d", version) //lint:alloc error slow path
	}
	switch f.kind {
	case msgRequest:
		f.key = names.resolve(d.RawString())
		f.op = names.resolve(d.RawString())
	case msgReply:
	case msgError:
		f.code = ErrorCode(d.U32())
		f.msg = string(d.RawString()) //lint:alloc error frame
	default:
		return fmt.Errorf("orb: unknown message kind %d", f.kind) //lint:alloc error slow path
	}
	f.body = d.RawString()
	return d.err
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
