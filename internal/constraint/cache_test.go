package constraint

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitReturnsSameExpr(t *testing.T) {
	c := NewCache(8)
	e1, err := c.Compile("a > 1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Compile("a > 1")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("second compile of identical source returned a different Expr")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache(8)
	_, err1 := c.Compile("a >")
	if err1 == nil {
		t.Fatal("malformed source compiled")
	}
	_, err2 := c.Compile("a >")
	if err2 == nil {
		t.Fatal("cached malformed source compiled")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1 (errors cached too)", hits, misses)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	mustCache := func(src string) {
		t.Helper()
		if _, err := c.Compile(src); err != nil {
			t.Fatal(err)
		}
	}
	mustCache("a > 1") // {a}
	mustCache("b > 1") // {a, b}
	mustCache("a > 1") // touch a → b is now LRU
	mustCache("c > 1") // evicts b → {a, c}
	if c.size() != 2 {
		t.Fatalf("len = %d, want 2", c.size())
	}
	hits0, _ := c.Stats()
	mustCache("a > 1") // hit
	mustCache("b > 1") // miss: was evicted
	hits1, _ := c.Stats()
	if hits1-hits0 != 1 {
		t.Fatalf("got %d hits over the probe pair, want exactly 1 (a cached, b evicted)", hits1-hits0)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := fmt.Sprintf("x > %d", i%20)
				e, err := c.Compile(src)
				if err != nil {
					t.Error(err)
					return
				}
				ok, err := e.Eval(Properties{"x": Number(100)})
				if err != nil || !ok {
					t.Errorf("eval %q = %v, %v", src, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.size() > 16 {
		t.Fatalf("cache grew past capacity: %d", c.size())
	}
}

func BenchmarkCacheCompileHit(b *testing.B) {
	c := NewCache(0)
	if _, err := c.Compile(benchExpr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(benchExpr); err != nil {
			b.Fatal(err)
		}
	}
}
