// Quickstart: build a five-node InteGrade cluster, submit a sequential
// application with the paper's canonical requirements ("at least 16 MB of
// RAM and a CPU of at least 500 MIPS"), and watch it run to completion —
// all in simulated time, so the run is instant. The paper's preference
// ("rather executing on a faster CPU") is not reproduced: the cluster's
// policy orders candidates in one ranking that a whole admission batch
// shares, and a per-application order would fork that ranking.
package main

import (
	"fmt"
	"log"
	"time"

	"integrade/internal/asct"
	"integrade/internal/core"
	"integrade/internal/resource"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	grid := core.NewGrid(core.WithSeed(42))
	defer grid.Stop()

	cluster, err := grid.AddCluster("ime")
	if err != nil {
		return err
	}
	if _, err := cluster.AddNodes(core.DedicatedNodes(5, 1200)); err != nil {
		return err
	}
	fmt.Printf("cluster %q up with %d nodes\n", cluster.ID(), cluster.GRM().KnownNodes())

	app := asct.NewApplication("hello-grid").
		Sequential(30 * 60 * 1200). // 30 minutes of work on a 1200-MIPS CPU
		RequireMinimum(resource.Vector{MIPS: 500, RAMMB: 16}).
		Allocate(resource.Vector{MIPS: 1200, RAMMB: 64})

	handle, err := grid.Submit(app)
	if err != nil {
		return err
	}
	fmt.Printf("submitted as %s\n\n", handle.ID())

	// Poll while advancing simulated time.
	for i := 0; i < 8; i++ {
		st, err := handle.Status()
		if err != nil {
			return err
		}
		fmt.Printf("t+%2dm  %s", int(5*i), asct.RenderStatus(st))
		if st.Done() {
			break
		}
		if err := grid.Advance(5 * time.Minute); err != nil {
			return err
		}
	}

	st, err := handle.Status()
	if err != nil {
		return err
	}
	if !st.Done() {
		return fmt.Errorf("application did not finish")
	}
	fmt.Println("grid statistics:")
	stats := cluster.GRM().Stats()
	fmt.Printf("  information updates received: %d\n", stats.UpdatesReceived)
	fmt.Printf("  negotiation rounds:           %d\n", stats.NegotiationRounds)
	fmt.Printf("  delivered grid work:          %.0f MI\n", cluster.DeliveredWork())
	return nil
}
