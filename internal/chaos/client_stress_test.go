package chaos

import (
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/sim"
)

// TestClientContentionStress exercises the TCP client under contention: many
// goroutines interleave calls through two clients with very different
// budgets while a chaos engine injects drops and slow (delayed) replies on
// the short-budget client. It asserts:
//
//  1. no reply misrouting — every successful reply carries its caller's
//     nonce, with every connection of both clients in use at once and late
//     deliveries landing between them;
//  2. no spurious connection kills — a client opens a connection only when
//     all it has are in use, so the server accepts no more than the warm-up
//     connections, one per concurrent caller, and one per delayed delivery
//     (which is a call of its own, landing while the callers are busy);
//  3. no goroutine leaks — the package's leak.Main gate (main_test.go)
//     fails the run if a connection's goroutine outlives its server.
//
// CHAOS_SEED parameterizes the fault schedule, mirroring the seeded suite
// driven by `make chaos`.
func TestClientContentionStress(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}

	// Servant: reply with the request's nonce after an optional busy delay,
	// using the fast-path idiom (zero-copy read, pooled reply encoder).
	adapter := orb.NewAdapter()
	mux := orb.NewOpMux().Handle("work", func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
		nonce := req.U64()
		delay := req.Duration()
		if err := req.Err(); err != nil {
			return nil, err
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		e := orb.GetEncoder()
		e.PutU64(nonce)
		return e, nil
	})
	if err := adapter.Register("work", mux); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts := &countingListener{Listener: ln}
	srv := orb.NewServer(accepts, adapter, nil)
	srv.Start()
	defer srv.Close()
	ref := srv.Ref("work")

	const (
		delayBy     = 300 * time.Millisecond
		shortBudget = 2 * time.Second // generous: servant delays stay well under it
		goroutines  = 16
		callsPer    = 25
	)

	// The short-budget client rides the chaos engine: some calls are dropped
	// (transport error, no wire traffic), some are delayed — the caller sees
	// a timeout now while the real invocation lands delayBy later, on
	// whichever connection is idle then or on a new one.
	engine := NewEngine(sim.RealClock{}, sim.NewRNG(seed))
	engine.AddFault(MessageFault{
		Match:   Match{Op: "work"},
		Drop:    0.05,
		Delay:   0.08,
		DelayBy: delayBy,
	})
	chaosClient := orb.NewClient(orb.WithCallTimeout(shortBudget))
	chaosClient.SetInterceptor(engine)
	defer chaosClient.Close()

	// The calm client shares the server but not the chaos: under the same
	// contention every one of its calls must succeed.
	calmClient := orb.NewClient(orb.WithCallTimeout(10 * time.Second))
	defer calmClient.Close()

	var (
		nonce      atomic.Uint64
		mismatches atomic.Int64
		badErrors  atomic.Int64
		calmErrors atomic.Int64
		wg         sync.WaitGroup
	)
	warmed := int64(0)
	call := func(client *orb.Client, rng *sim.RNG) error {
		n := nonce.Add(1)
		e := orb.GetEncoder()
		e.PutU64(n)
		e.PutDuration(time.Duration(rng.Intn(5)) * time.Millisecond)
		reply, err := client.Invoke(ref, "work", e.Bytes())
		orb.PutEncoder(e)
		if err != nil {
			return err
		}
		d := orb.NewDecoder(reply)
		if got := d.U64(); got != n || d.Err() != nil {
			mismatches.Add(1)
		}
		return nil
	}
	// Warm one connection per client before the storm, so the accept bound
	// below starts from a known count.
	warm := sim.NewRNG(seed).Fork("warm")
	for _, client := range []*orb.Client{chaosClient, calmClient} {
		for {
			if err := call(client, warm); err == nil {
				break // a chaos drop/delay can fail the warm-up; retry
			}
		}
	}
	warmed = accepts.count.Load()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRNG(seed).Fork("stress-" + strconv.Itoa(g))
			chaotic := g%2 == 0
			for i := 0; i < callsPer; i++ {
				if chaotic {
					if err := call(chaosClient, rng); err != nil {
						// Chaos produces exactly the retryable taxonomy:
						// drops → CodeTransport, delays → CodeTimeout.
						if !orb.IsCode(err, orb.CodeTransport) && !orb.IsCode(err, orb.CodeTimeout) {
							badErrors.Add(1)
						}
					}
				} else if err := call(calmClient, rng); err != nil {
					calmErrors.Add(1)
					t.Logf("calm client error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	// Let every delayed delivery land, then verify both clients still work
	// after the storm and an idle gap.
	engine.ClearFaults()
	time.Sleep(delayBy + 200*time.Millisecond)
	for _, client := range []*orb.Client{chaosClient, calmClient} {
		if err := call(client, sim.NewRNG(seed).Fork("post")); err != nil {
			t.Errorf("post-storm call failed: %v", err)
		}
	}

	if n := mismatches.Load(); n != 0 {
		t.Errorf("%d replies carried the wrong nonce (misrouted)", n)
	}
	if n := badErrors.Load(); n != 0 {
		t.Errorf("%d chaos-client errors outside the CodeTransport/CodeTimeout taxonomy", n)
	}
	if n := calmErrors.Load(); n != 0 {
		t.Errorf("%d calm-client calls failed under contention", n)
	}
	// Each client has goroutines/2 callers, and a delayed delivery is one
	// more concurrent call on the chaos client.
	limit := warmed + goroutines + int64(engine.Stats().Delayed)
	if n := accepts.count.Load(); n > limit {
		t.Errorf("server accepted %d connections, want at most %d (%d warm-up + %d callers + %d delayed deliveries): a healthy connection was closed",
			n, limit, warmed, goroutines, engine.Stats().Delayed)
	}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	count atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.count.Add(1)
	}
	return c, err
}
