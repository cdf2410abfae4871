// Command integrade-asct is the Application Submission and Control Tool
// CLI: it submits applications to a cluster manager and monitors their
// progress, per the paper's ASCT. -grm may name any member of a replica set:
// one that does not lead refuses a submit or cancel with a forward naming the
// leader, which the tool follows once.
//
//	integrade-asct -grm 127.0.0.1:7000 submit -name render -kind bsp \
//	    -tasks 8 -work 6e8 -mips 500 -ram 64 -watch
//	integrade-asct -grm 127.0.0.1:7000 status -app cluster-0-app-1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"integrade/internal/asct"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "integrade-asct:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("integrade-asct", flag.ContinueOnError)
	grmAddr := global.String("grm", "127.0.0.1:7000", "cluster manager TCP address")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand: submit | status | cancel | list")
	}

	o := orb.New()
	defer o.Close()
	grmRef := orb.ObjectRef{
		Endpoint: orb.Endpoint{Net: orb.NetTCP, Addr: *grmAddr},
		Key:      protocol.GRMKey,
	}
	tool := asct.New(o, grmRef, sim.RealClock{})

	switch rest[0] {
	case "submit":
		return submit(tool, rest[1:])
	case "status":
		return status(tool, rest[1:])
	case "cancel":
		return cancel(tool, rest[1:])
	case "list":
		return list(tool)
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

func submit(tool *asct.Tool, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var (
		name    = fs.String("name", "app", "application name")
		kind    = fs.String("kind", "sequential", "sequential | parametric | bsp")
		tasks   = fs.Int("tasks", 1, "number of processes/tasks")
		work    = fs.Float64("work", 1e6, "work per task in MI")
		mips    = fs.Float64("mips", 500, "MIPS to allocate per task")
		ram     = fs.Float64("ram", 64, "RAM (MB) to allocate per task")
		minMIPS = fs.Float64("min-mips", 0, "hard minimum machine MIPS (paper: 'CPU of at least 500 MIPS')")
		minRAM  = fs.Float64("min-ram", 0, "hard minimum machine RAM MB")
		cons    = fs.String("constraint", "", "extra trader constraint expression")
		ckpt    = fs.Float64("checkpoint", 0, "checkpoint every this much work (MI); enables restart")
		watch   = fs.Bool("watch", false, "poll status until completion")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	b := asct.NewApplication(*name)
	switch *kind {
	case "sequential":
		b.Sequential(*work)
	case "parametric":
		b.Parametric(*tasks, *work)
	case "bsp":
		b.BSP(*tasks, *work)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	b.Allocate(resource.Vector{MIPS: *mips, RAMMB: *ram})
	if *minMIPS > 0 || *minRAM > 0 {
		b.RequireMinimum(resource.Vector{MIPS: *minMIPS, RAMMB: *minRAM})
	}
	if *cons != "" {
		b.Constraint(*cons)
	}
	if *ckpt > 0 {
		b.Checkpoint(*ckpt)
	}

	h, err := tool.Submit(b)
	if err != nil {
		return err
	}
	fmt.Printf("submitted: %s\n", h.ID())
	if !*watch {
		return nil
	}
	for {
		st, err := h.Status()
		if err != nil {
			return err
		}
		fmt.Print(asct.RenderStatus(st))
		if st.Done() {
			return nil
		}
		time.Sleep(5 * time.Second)
	}
}

func list(tool *asct.Tool) error {
	ids, err := tool.ListApps()
	if err != nil {
		return err
	}
	for _, id := range ids {
		fmt.Println(id)
	}
	if len(ids) == 0 {
		fmt.Println("(no applications)")
	}
	return nil
}

func cancel(tool *asct.Tool, args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ContinueOnError)
	appID := fs.String("app", "", "application ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appID == "" {
		return fmt.Errorf("cancel: -app is required")
	}
	if err := tool.Handle(*appID).Cancel(); err != nil {
		return err
	}
	fmt.Printf("cancelled %s\n", *appID)
	return nil
}

func status(tool *asct.Tool, args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	appID := fs.String("app", "", "application ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appID == "" {
		return fmt.Errorf("status: -app is required")
	}
	h := tool.Handle(*appID)
	st, err := h.Status()
	if err != nil {
		return err
	}
	fmt.Print(asct.RenderStatus(st))
	return nil
}
