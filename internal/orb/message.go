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

// frame is one protocol message. Frames are pooled: obtain with getFrame,
// release with putFrame once every field read from it is dead (or detached).
type frame struct {
	kind  uint8
	reqID uint64
	// request fields
	key string
	op  string
	// error fields
	code ErrorCode
	msg  string
	// request/reply payload
	body []byte
	// raw is the pooled read buffer backing body for inbound frames.
	// putFrame recycles it; detachBody transfers it to the caller instead.
	raw []byte
}

// detachBody returns the frame's payload and transfers ownership of its
// backing buffer to the caller, so putFrame will not recycle it underneath
// a reply body that outlives the frame.
func (f *frame) detachBody() []byte {
	b := f.body
	f.body = nil
	f.raw = nil
	return b
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// getFrame returns a zeroed frame from the pool.
func getFrame() *frame {
	return framePool.Get().(*frame)
}

// putFrame recycles f and, when still attached, its read buffer. The caller
// must hold no references into f (detachBody first to keep the payload).
func putFrame(f *frame) {
	if f == nil {
		return
	}
	raw := f.raw
	*f = frame{}
	framePool.Put(f)
	putBuf(raw)
}

// bufPool recycles frame read buffers. Entries are *[]byte to avoid
// allocating a slice header on every Put.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a length-n byte slice, reusing pooled capacity when it can.
func getBuf(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) >= n {
		b := (*bp)[:n]
		*bp = nil
		bufPool.Put(bp)
		return b
	}
	*bp = nil
	bufPool.Put(bp)
	return make([]byte, n)
}

// putBuf recycles b for a future getBuf. Oversized buffers are dropped.
func putBuf(b []byte) {
	if b == nil || cap(b) > maxPooledBuf {
		return
	}
	bp := bufPool.Get().(*[]byte)
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

// readFrame reads one length-prefixed frame from r. The returned frame and
// its payload come from the wire pools: release with putFrame, after
// detachBody if the payload escapes.
func readFrame(r *bufio.Reader) (*frame, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > maxFrameLen {
		return nil, fmt.Errorf("orb: frame length %d exceeds limit", n) //lint:alloc error slow path
	}
	buf := getBuf(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		putBuf(buf)
		return nil, err
	}
	d := getDecoder(buf)
	defer putDecoder(d)
	if magic := d.U32(); magic != protoMagic {
		putBuf(buf)
		return nil, fmt.Errorf("orb: bad magic %#x", magic) //lint:alloc error slow path
	}
	if v := d.U8(); v != protoVersion {
		putBuf(buf)
		return nil, fmt.Errorf("orb: unsupported protocol version %d", v) //lint:alloc error slow path
	}
	f := getFrame()
	f.kind = d.U8()
	f.reqID = d.U64()
	switch f.kind {
	case msgRequest:
		f.key = d.String()
		f.op = d.String()
	case msgReply:
	case msgError:
		f.code = ErrorCode(d.U32())
		f.msg = d.String()
	default:
		kind := f.kind
		f.raw = buf
		putFrame(f)
		return nil, fmt.Errorf("orb: unknown message kind %d", kind) //lint:alloc error slow path
	}
	// The payload aliases buf — no copy. The frame owns buf from here on.
	f.body = d.RawBytes()
	f.raw = buf
	if err := d.Err(); err != nil {
		putFrame(f)
		return nil, err
	}
	return f, nil
}
