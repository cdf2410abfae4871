// Command integrade-lrm runs a Resource Provider agent over TCP: one
// machine's LRM plus its LUPA, publishing status to a cluster manager via
// the Information Update Protocol and executing grid tasks under an NCC
// sharing policy.
//
// The machine itself is simulated (spec from flags, owner activity from a
// synthetic usage profile) — the documented substitution for real desktop
// hardware; the agent, its protocols and its wire traffic are real. -grm may
// list a replica set's members: a member that does not lead refuses an update
// with a forward naming the leader, which the agent follows and reports to.
//
//	integrade-lrm -grm 127.0.0.1:7000 -id ws-12 -mips 1500 -profile office
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"integrade/internal/lrm"
	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/usage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "integrade-lrm:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		grmAddr = flag.String("grm", "127.0.0.1:7000", "cluster manager TCP address(es), comma-separated; extras are failover candidates")
		listen  = flag.String("listen", "127.0.0.1:0", "TCP address for this agent")
		id      = flag.String("id", "", "node identifier (default: host-pid)")
		mips    = flag.Float64("mips", 1000, "CPU speed in MIPS")
		ramMB   = flag.Float64("ram", 1024, "physical memory in MB")
		diskMB  = flag.Float64("disk", 20480, "scratch disk in MB")
		netMbps = flag.Float64("net", 100, "network bandwidth in Mbps")
		lan     = flag.String("lan", "lan0", "LAN segment identifier")
		profile = flag.String("profile", "office", "owner profile: office|lab|nightowl|mostlyidle|alwaysbusy|dedicated")
		cpuFrac = flag.Float64("share-cpu", 0.5, "NCC: CPU fraction the grid may use")
		ramFrac = flag.Float64("share-ram", 0.5, "NCC: RAM fraction the grid may use")
		mode    = flag.String("mode", "idle-only", "NCC mode: idle-only|shared")
		update  = flag.Duration("update-period", lrm.DefaultUpdatePeriod, "information update period")
		seed    = flag.Int64("seed", 0, "trace seed (default: from id)")
		verbose = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	logLevel := slog.LevelWarn
	if *verbose {
		logLevel = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))

	if *id == "" {
		host, _ := os.Hostname()
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	spec := resource.MachineSpec{
		Platform: resource.Platform{Arch: "amd64", OS: "linux"},
		Capacity: resource.Vector{MIPS: *mips, RAMMB: *ramMB, DiskMB: *diskMB, NetMbps: *netMbps},
		LANID:    *lan,
	}
	var trace *usage.Trace
	pol := ncc.Policy{CPUFraction: *cpuFrac, RAMFraction: *ramFrac, IdleAfter: 5 * time.Minute}
	switch *mode {
	case "idle-only":
		pol.Mode = ncc.ModeIdleOnly
	case "shared":
		pol.Mode = ncc.ModeShared
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *profile == "dedicated" {
		spec.Dedicated = true
		pol = ncc.Generous()
	} else {
		p, err := usage.ProfileByName(profileAlias(*profile))
		if err != nil {
			return err
		}
		s := *seed
		if s == 0 {
			for _, c := range *id {
				s = s*31 + int64(c)
			}
		}
		trace = usage.NewTrace(p, s)
	}

	clock := sim.RealClock{}
	n, err := node.New(*id, spec, trace, pol, clock.Now())
	if err != nil {
		return err
	}

	o := orb.New(orb.WithLogger(log))
	defer o.Close()
	adapter := orb.NewAdapter()
	srv, err := o.ListenTCP(*listen, adapter)
	if err != nil {
		return err
	}
	defer srv.Close()

	var refs []orb.ObjectRef
	for addr := range strings.SplitSeq(*grmAddr, ",") {
		refs = append(refs, orb.ObjectRef{
			Endpoint: orb.Endpoint{Net: orb.NetTCP, Addr: addr},
			Key:      protocol.GRMKey,
		})
	}
	grmRef := refs[0]
	// After repeated update failures the agent re-registers, rotating through
	// the candidate managers (a replica set's members, or one restarted).
	agent := lrm.New(n, clock, o, srv.Ref(protocol.LRMKey), grmRef,
		lrm.WithUpdatePeriod(*update),
		lrm.WithLogger(log),
		lrm.WithGRMResolver(lrm.Rotation(refs...)),
	)
	if err := adapter.Register(protocol.LRMKey, agent.Servant()); err != nil {
		return err
	}
	agent.Start()
	defer agent.Stop()
	agent.SendUpdate()

	fmt.Printf("resource provider %q up at %s\n", *id, srv.Ref(protocol.LRMKey))
	fmt.Printf("  machine: %.0f MIPS, %.0f MB RAM, profile %s, NCC %s (cpu %.0f%%)\n",
		*mips, *ramMB, *profile, pol.Mode, pol.CPUFraction*100)
	fmt.Printf("  reporting to %s every %s\n", grmRef, *update)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(time.Minute)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
			st := agent.Stats()
			status := agent.Status()
			fmt.Printf("[%s] updates=%d grants=%d running=%d done=%d evicted=%d ownerBusy=%v\n",
				time.Now().Format("15:04:05"), st.UpdatesSent, st.ReserveGrants,
				len(n.RunningTasks()), st.TasksCompleted, st.TasksEvicted, status.OwnerBusy)
		}
	}
}

// profileAlias maps CLI names onto usage profile names.
func profileAlias(name string) string {
	switch name {
	case "office":
		return "office"
	case "lab":
		return "lab"
	default:
		return name
	}
}
