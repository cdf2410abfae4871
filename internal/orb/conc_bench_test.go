package orb

import (
	"fmt"
	"sync"
	"testing"
)

// benchConcurrent drives n goroutines through inv.Invoke as fast as they can
// go, splitting b.N across them. It measures invoke throughput under
// concurrency: the loopback rows exercise dispatch and pooling, the TCP rows
// exercise the idle-connection stack with more callers than it keeps.
func benchConcurrent(b *testing.B, inv Invoker, ref ObjectRef, callers int) {
	b.Helper()
	var e Encoder
	e.PutBytes(make([]byte, 256))
	arg := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / callers
	if per == 0 {
		per = 1
	}
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := inv.Invoke(ref, "echo", arg); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}
}

func BenchmarkLoopbackInvokeConcurrent(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			o := New()
			ep, err := o.BindLoopback("bench", benchEchoAdapter(b))
			if err != nil {
				b.Fatal(err)
			}
			benchConcurrent(b, o, ObjectRef{Endpoint: ep, Key: "echo"}, callers)
		})
	}
}

func BenchmarkTCPInvokeConcurrent(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			o := New()
			defer o.Close()
			srv, err := o.ListenTCP("127.0.0.1:0", benchEchoAdapter(b))
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			benchConcurrent(b, o, srv.Ref("echo"), callers)
		})
	}
}
