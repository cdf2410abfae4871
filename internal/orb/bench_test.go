package orb

import (
	"io"
	"net"
	"testing"
	"time"
)

func benchEchoAdapter(b *testing.B) *Adapter {
	b.Helper()
	a := NewAdapter()
	// The fast-path servant idiom from DESIGN.md §13: read the payload
	// zero-copy (it is not retained past Dispatch), build the reply in a
	// pooled encoder pre-sized to its final length.
	mux := NewOpMux().Handle("echo", func(_ string, req *Decoder) (*Encoder, error) {
		data := req.RawString()
		if err := req.Err(); err != nil {
			return nil, err
		}
		e := GetEncoder()
		e.Grow(4 + len(data))
		e.PutBytes(data)
		return e, nil
	})
	if err := a.Register("echo", mux); err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkLoopbackInvoke(b *testing.B) {
	o := New()
	ep, err := o.BindLoopback("bench", benchEchoAdapter(b))
	if err != nil {
		b.Fatal(err)
	}
	ref := ObjectRef{Endpoint: ep, Key: "echo"}
	var e Encoder
	e.PutBytes(make([]byte, 256))
	arg := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Invoke(ref, "echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPRawEcho is the floor BenchmarkTCPInvoke is read against: the
// same 300 bytes each way over one 127.0.0.1 connection, a goroutine on
// each end and no ORB. Invoke minus this is what the ORB itself costs;
// BenchmarkTCPOverhead measures that difference within one run.
func BenchmarkTCPRawEcho(b *testing.B) {
	conn := rawEcho(b)
	buf := make([]byte, rawEchoSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// rawEchoSize is the bytes a raw echo sends each way, about an echo
// Invoke's request frame.
const rawEchoSize = 300

// rawEcho is a client connection to a goroutine on 127.0.0.1 that writes
// back every rawEchoSize bytes it reads; both close when b ends.
func rawEcho(b *testing.B) net.Conn {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, rawEchoSize)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		conn.Close()
		ln.Close()
		<-done
	})
	return conn
}

// BenchmarkTCPOverhead is what the ORB adds to a round trip on 127.0.0.1,
// as a pair measured in one run: blocks of raw echoes (BenchmarkTCPRawEcho's)
// and of Invokes (BenchmarkTCPInvoke's) alternate over one setup, each
// side first in every other pair of blocks, so both see the same host
// state. One op is one of each; orb-overhead-ns/op is the Invoke's time
// less the raw echo's. Two separate benchmarks spread too far between runs
// on a 2-core host to resolve a few percent of the ORB's share.
func BenchmarkTCPOverhead(b *testing.B) {
	conn := rawEcho(b)
	buf := make([]byte, rawEchoSize)
	o := New()
	defer o.Close()
	srv, err := o.ListenTCP("127.0.0.1:0", benchEchoAdapter(b))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Ref("echo")
	var e Encoder
	e.PutBytes(make([]byte, 256))
	arg := e.Bytes()
	raw := func(n int) time.Duration {
		start := time.Now()
		for range n {
			if _, err := conn.Write(buf); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	invoke := func(n int) time.Duration {
		start := time.Now()
		for range n {
			if _, err := o.Invoke(ref, "echo", arg); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	raw(1)
	invoke(1) // dials the ORB's connection off the clock
	const block = 256
	var rawT, orbT time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for done, i := 0, 0; done < b.N; i++ {
		k := min(block, b.N-done)
		if i%2 == 0 {
			rawT += raw(k)
			orbT += invoke(k)
		} else {
			orbT += invoke(k)
			rawT += raw(k)
		}
		done += k
	}
	b.StopTimer()
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
	b.ReportMetric(perOp(rawT), "raw-ns/op")
	b.ReportMetric(perOp(orbT), "invoke-ns/op")
	b.ReportMetric(perOp(orbT-rawT), "orb-overhead-ns/op")
}

func BenchmarkTCPInvoke(b *testing.B) {
	var e Encoder
	e.PutBytes(make([]byte, 256))
	benchTCPInvoke(b, benchEchoAdapter(b), "echo", e.Bytes())
}

// benchTCPInvoke serves a on 127.0.0.1 and times one caller invoking op on
// the object of the same name, each call waiting for its reply.
func benchTCPInvoke(b *testing.B, a *Adapter, op string, arg []byte) {
	b.Helper()
	o := New()
	defer o.Close()
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Ref(op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Invoke(ref, op, arg); err != nil {
			b.Fatal(err)
		}
	}
}

// deepen recurses depth frames of 256 bytes each, touching every one, and
// returns a value that depends on all of them so none is optimised away.
//
//go:noinline
func deepen(depth int, seed byte) byte {
	var pad [256]byte
	pad[depth%len(pad)] = seed
	if depth == 0 {
		return pad[0]
	}
	return deepen(depth-1, seed+1) + pad[depth%len(pad)]
}

// BenchmarkTCPDeepServant is BenchmarkTCPInvoke with a servant that needs
// about 6 KiB of stack, as a GRM or LRM handler does (decode, lock, trader
// upsert, encode). A goroutine starts on 2 KiB, so a server that starts one
// per request pays runtime.newstack and copystack on every call; a
// connection's goroutine pays them once.
func BenchmarkTCPDeepServant(b *testing.B) {
	a := NewAdapter()
	mux := NewOpMux().Handle("deep", func(_ string, req *Decoder) (*Encoder, error) {
		e := GetEncoder()
		e.PutU8(deepen(22, req.U8()))
		return e, req.Err()
	})
	if err := a.Register("deep", mux); err != nil {
		b.Fatal(err)
	}
	benchTCPInvoke(b, a, "deep", []byte{1})
}

func BenchmarkTCPInvokeParallel(b *testing.B) {
	o := New()
	defer o.Close()
	srv, err := o.ListenTCP("127.0.0.1:0", benchEchoAdapter(b))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Ref("echo")
	var e Encoder
	e.PutBytes(make([]byte, 256))
	arg := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := o.Invoke(ref, "echo", arg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWireEncode(b *testing.B) {
	var e Encoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutString("node-12")
		e.PutF64(1234.5)
		e.PutF64(512)
		e.PutBool(true)
		e.PutI64(123456789)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	var e Encoder
	e.PutString("node-12")
	e.PutF64(1234.5)
	e.PutF64(512)
	e.PutBool(true)
	e.PutI64(123456789)
	buf := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		_ = d.String()
		_ = d.F64()
		_ = d.F64()
		_ = d.Bool()
		_ = d.I64()
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}
