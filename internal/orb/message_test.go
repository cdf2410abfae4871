package orb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"integrade/internal/testutil/leak"
)

// prefixed returns b behind a u32 length prefix of n.
func prefixed(n int, b []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(n)), b...)
}

// TestMalformedFrames feeds each malformed frame to readFrame, then to a
// live Server over TCP: readFrame fails with the case's error, and the
// server closes the connection and leaves no goroutine behind. A request
// frame is u32 magic | u8 version | u8 kind | u64 reqID | key | op | body.
func TestMalformedFrames(t *testing.T) {
	req := captureFrame(&frame{kind: msgRequest, reqID: 1, key: "echo", op: "echo", body: encodeString("hi")})
	reply := captureFrame(&frame{kind: msgReply, reqID: 1, body: []byte("late")})
	with := func(i int, v byte) []byte {
		b := slices.Clone(req)
		b[i] = v
		return prefixed(len(b), b)
	}
	cases := []struct {
		name string
		data []byte
		// want is the error readFrame returns: a sentinel, or a substring of
		// its message; "" when the frame parses and the server refuses it.
		want    error
		wantMsg string
		// short streams end before the frame does: the server reads to
		// their end. Every other frame is whole, and the server must close
		// the connection without waiting for the peer's end.
		short bool
	}{
		{name: "length over limit", data: prefixed(maxFrameLen+1, nil), wantMsg: "exceeds limit"},
		{name: "truncated length", data: []byte{0, 0}, want: io.ErrUnexpectedEOF, short: true},
		{name: "stream ends inside frame", data: prefixed(len(req), req[:10]), want: io.ErrUnexpectedEOF, short: true},
		{name: "truncated header", data: prefixed(10, req[:10]), want: ErrTruncated},
		{name: "truncated key", data: prefixed(20, req[:20]), want: ErrTruncated},
		{name: "truncated body", data: prefixed(len(req)-1, req[:len(req)-1]), want: ErrTruncated},
		{name: "bad magic", data: with(0, 'X'), wantMsg: "bad magic"},
		{name: "bad version", data: with(4, protoVersion+1), wantMsg: "unsupported protocol version"},
		{name: "unknown kind", data: with(5, 9), wantMsg: "unknown message kind"},
		{name: "reply sent to server", data: prefixed(len(reply), reply)},
	}

	a := NewAdapter()
	if err := a.Register("echo", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, _ := serveCounted(t, "127.0.0.1:0", a)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				in []byte
				f  frame
			)
			err := readFrame(bufio.NewReader(bytes.NewReader(tc.data)), &in, &f, nil)
			switch {
			case tc.want != nil && !errors.Is(err, tc.want),
				tc.wantMsg != "" && (err == nil || !strings.Contains(err.Error(), tc.wantMsg)),
				tc.want == nil && tc.wantMsg == "" && err != nil:
				t.Fatalf("readFrame: err %v, want %v%s", err, tc.want, tc.wantMsg)
			}
			if tc.name == "length over limit" && in != nil {
				t.Fatalf("readFrame grew the connection's buffer to %d bytes before refusing the length", cap(in))
			}

			conn, err := net.Dial("tcp", srv.Endpoint().Addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.data); err != nil {
				t.Fatal(err)
			}
			if tc.short {
				_ = conn.(*net.TCPConn).CloseWrite()
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(conn)
			if len(got) != 0 || isDeadlineErr(err) {
				t.Fatalf("server answered %d bytes (err %v), want it to close the connection", len(got), err)
			}
			waitFor(t, "the server to drop the connection", func() bool { return srv.connCount() == 0 })
		})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	leak.VerifyNone(t)
}

// TestFrameLargerThanPooled: a legal frame larger than maxPooledBuf is read
// and written whole, and neither a connection's frame buffer nor its
// encoder keeps the memory it took; over TCP it is served like any other.
func TestFrameLargerThanPooled(t *testing.T) {
	big := encodeString(strings.Repeat("x", maxPooledBuf+1))
	var wire bytes.Buffer
	var out Encoder
	if err := writeFrame(&wire, &out, &frame{kind: msgRequest, reqID: 1, key: "echo", op: "echo", body: big}); err != nil {
		t.Fatal(err)
	}
	if cap(out.buf) != 0 {
		t.Fatalf("writeFrame kept a %d-byte encoder buffer", cap(out.buf))
	}
	small := captureFrame(&frame{kind: msgReply, reqID: 2, body: []byte("ok")})
	wire.Write(prefixed(len(small), small))

	var (
		in []byte
		f  frame
	)
	r := bufio.NewReader(&wire)
	if err := readFrame(r, &in, &f, nil); err != nil || !bytes.Equal(f.body, big) {
		t.Fatalf("big frame: err %v, body of %d bytes, want %d", err, len(f.body), len(big))
	}
	if in != nil {
		t.Fatalf("readFrame kept a %d-byte frame buffer", cap(in))
	}
	if err := readFrame(r, &in, &f, nil); err != nil || string(f.body) != "ok" || cap(in) > maxPooledBuf {
		t.Fatalf("frame after the big one: err %v, body %q, buffer of %d bytes", err, f.body, cap(in))
	}

	a := NewAdapter()
	if err := a.Register("echo", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, _ := serveCounted(t, "127.0.0.1:0", a)
	defer srv.Close()
	c := NewClient()
	defer c.Close()
	for call := 1; call <= 2; call++ {
		reply, err := c.Invoke(srv.Ref("echo"), "echo", big)
		if err != nil || !bytes.Equal(reply, big) {
			t.Fatalf("call %d: err %v, reply of %d bytes, want %d", call, err, len(reply), len(big))
		}
	}
	c.mu.Lock()
	idle := c.idle[srv.Endpoint().Addr]
	c.mu.Unlock()
	if len(idle) != 1 || cap(idle[0].in) > maxPooledBuf || cap(idle[0].out.buf) > maxPooledBuf {
		t.Fatalf("client kept %d connections, want 1 holding no buffer past %d bytes", len(idle), maxPooledBuf)
	}
}
