// Command integrade-grm runs a Cluster Manager node over TCP: the GRM (with
// its embedded Trader), a Naming service and a hierarchy node — the paper's
// "one or more nodes that are responsible for managing that cluster". The
// paper's GUPA has no servant here: each node's usage forecast rides its
// Information Update, which the GRM already holds.
//
// Usage:
//
//	integrade-grm -listen :7000 -cluster ime -policy usage-aware
//
// Agents (integrade-lrm) point at this address; integrade-asct submits to it.
// To survive the loss of a manager, run a consensus replica set: an elected
// leader, quorum-acknowledged replication and fencing epochs. A member that
// does not lead refuses every write with a forward naming the leader, which
// agents and the ASCT follow; a leader that no majority has answered within
// the election timeout refuses them naming none, and its 30-s status line
// reads quorum=lost; the line's nodes= counts the cluster's members, which
// every member knows from the log, and log=<entries>/<bytes>B is the size of
// the member's consensus log. Every member runs the same -peers list; exactly one
// passes -bootstrap on first start:
//
//	integrade-grm -listen :7000 -cluster ime -id m0 \
//	    -peers m0=host0:7000,m1=host1:7000,m2=host2:7000 -bootstrap
//	integrade-grm -listen :7000 -cluster ime -id m1 \
//	    -peers m0=host0:7000,m1=host1:7000,m2=host2:7000    # on host1, m2 alike
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"integrade/internal/election"
	"integrade/internal/grm"
	"integrade/internal/hierarchy"
	"integrade/internal/naming"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "integrade-grm:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", ":7000", "TCP address to listen on")
		cluster   = flag.String("cluster", "cluster-0", "cluster identifier")
		policy    = flag.String("policy", "usage-aware", "scheduling policy: usage-aware|best-fit|random|round-robin")
		offerTTL  = flag.Duration("offer-ttl", grm.DefaultOfferTTL, "node offer expiry")
		schedule  = flag.Duration("schedule-period", grm.DefaultSchedulePeriod, "pending-task scheduling period")
		parentRef = flag.String("parent", "", "parent hierarchy node reference (tcp://host:port/hierarchy)")
		memberID  = flag.String("id", "", "this replica's member name within -peers")
		peersFlag = flag.String("peers", "", "consensus replica set as name=host:port pairs, comma-separated, including this member")
		bootstrap = flag.Bool("bootstrap", false, "assume term-1 leadership on first start (exactly one member of a fresh replica set)")
		stateDir  = flag.String("state-dir", "", "directory for persistent election state (default .integrade-grm/<cluster>-<id>)")
		verbose   = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	logLevel := slog.LevelWarn
	if *verbose {
		logLevel = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))

	pol, err := policyByName(*policy)
	if err != nil {
		return err
	}

	clock := sim.RealClock{}
	o := orb.New(orb.WithLogger(log))
	defer o.Close()

	g := grm.New(*cluster, clock, o,
		grm.WithPolicy(pol),
		grm.WithOfferTTL(*offerTTL),
		grm.WithSchedulePeriod(*schedule),
		grm.WithLogger(log),
		grm.WithRNG(sim.NewRNG(time.Now().UnixNano())),
	)
	namingSvc := naming.NewService()
	hnode := hierarchy.NewNode(g, o)

	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		return err
	}
	if err := adapter.Register(naming.ObjectKey, naming.Servant(namingSvc)); err != nil {
		return err
	}
	if err := adapter.Register(hierarchy.ObjectKey, hnode.Servant()); err != nil {
		return err
	}

	srv, err := o.ListenTCP(*listen, adapter)
	if err != nil {
		return err
	}
	defer srv.Close()
	hnode.SetSelfRef(srv.Ref(hierarchy.ObjectKey))
	if *parentRef != "" {
		ref, err := orb.ParseRef(*parentRef)
		if err != nil {
			return fmt.Errorf("parent: %w", err)
		}
		hnode.SetParent(ref)
	}

	// Self-register the manager services in the naming directory.
	for _, key := range []string{protocol.GRMKey, hierarchy.ObjectKey} {
		if err := namingSvc.Bind("services/"+key, srv.Ref(key)); err != nil {
			return err
		}
	}

	if *peersFlag != "" {
		// Election calls get a budget of one heartbeat, not the ORB's 30 s:
		// a member that stops answering then holds up an append round, and
		// with it a Submit, for at most that long.
		ec := orb.NewClient(orb.WithCallTimeout(election.DefaultHeartbeat))
		defer ec.Close()
		en, err := buildElection(g, adapter, ec, clock, log,
			*cluster, *memberID, *peersFlag, *stateDir, *bootstrap)
		if err != nil {
			return err
		}
		defer en.Stop()
		defer g.Stop()
		en.Start()
		fmt.Printf("  consensus member %q (bootstrap=%v)\n", *memberID, *bootstrap)
	} else {
		g.Start()
		defer g.Stop()
	}

	fmt.Printf("cluster manager %q up (role %s)\n", *cluster, g.Role())
	fmt.Printf("  GRM:       %s\n", srv.Ref(protocol.GRMKey))
	fmt.Printf("  Naming:    %s\n", srv.Ref(naming.ObjectKey))
	fmt.Printf("  Hierarchy: %s\n", srv.Ref(hierarchy.ObjectKey))
	fmt.Printf("  policy:    %s\n", g.PolicyName())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
			st := g.Stats()
			entries, bytes := logSize(g)
			fmt.Printf("[%s] role=%s quorum=%s epoch=%d nodes=%d updates=%d submissions=%d placed=%d pending-evictions=%d replica-batches=%d quorum-batches=%d log=%d/%dB\n",
				time.Now().Format("15:04:05"), g.Role(), quorum(g), g.Epoch(), st.Members, st.UpdatesReceived,
				st.Submissions, st.TasksPlaced, st.TasksEvicted, st.ReplicaBatches, st.QuorumBatches, entries, bytes)
		}
	}
}

// quorum is the status line's quorum field: "lost" on a leader no majority
// answered within its election timeout, which refuses every write; "-" on a
// member that does not lead.
func quorum(g *grm.GRM) string {
	switch en := g.Election(); {
	case g.Role() != grm.RolePrimary:
		return "-"
	case en != nil && !en.HasQuorum():
		return "lost"
	}
	return "held"
}

// logSize is the status line's log field: the entries and payload bytes of
// the consensus log, none without a replica set.
func logSize(g *grm.GRM) (entries, bytes int) {
	if en := g.Election(); en != nil {
		return en.LogSize()
	}
	return 0, 0
}

// buildElection wires the GRM into a consensus replica set: the member list
// becomes the election peer map, hard state persists under the state dir
// (so a restarted member cannot double-vote in a term it already voted in),
// and leadership transitions drive the GRM's role and fencing epoch. The GRM
// is a follower until the election makes it leader.
func buildElection(g *grm.GRM, adapter *orb.Adapter, inv orb.Invoker, clock sim.Clock,
	log *slog.Logger, cluster, id, peersFlag, stateDir string, bootstrap bool) (*election.Node, error) {
	if id == "" {
		return nil, fmt.Errorf("-peers requires -id")
	}
	peers, err := parsePeers(peersFlag)
	if err != nil {
		return nil, err
	}
	if _, ok := peers[id]; !ok {
		return nil, fmt.Errorf("-id %q is not in -peers", id)
	}
	if stateDir == "" {
		stateDir = filepath.Join(".integrade-grm", cluster+"-"+id)
	}
	store, err := election.NewFileStore(stateDir)
	if err != nil {
		return nil, err
	}
	en := election.NewNode(election.Config{
		ID:         id,
		Peers:      peers,
		Clock:      clock,
		RNG:        sim.NewRNG(time.Now().UnixNano()),
		Inv:        inv,
		Store:      store,
		Apply:      g.ApplyReplicaEntry,
		OnLeader:   func(term int) { g.LeadAt(term) },
		OnFollower: func(term int, leader string) { g.FollowAt(term) },
		Bootstrap:  bootstrap,
		Logger:     log,
	})
	// This member's GRM is where its peers, and the agents, reach it.
	g.UseElection(en, orb.ObjectRef{Endpoint: peers[id].Endpoint, Key: protocol.GRMKey})
	if err := adapter.Register(election.ObjectKey, en.Servant()); err != nil {
		return nil, err
	}
	return en, nil
}

// parsePeers decodes "name=host:port,..." into election peer references.
func parsePeers(s string) (map[string]orb.ObjectRef, error) {
	peers := make(map[string]orb.ObjectRef)
	parts := strings.Split(s, ",")
	sort.Strings(parts)
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("malformed -peers entry %q (want name=host:port)", part)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("duplicate -peers member %q", name)
		}
		peers[name] = orb.ObjectRef{
			Endpoint: orb.Endpoint{Net: orb.NetTCP, Addr: addr},
			Key:      election.ObjectKey,
		}
	}
	if len(peers) < 2 {
		return nil, fmt.Errorf("-peers needs at least two members, got %d", len(peers))
	}
	return peers, nil
}

func policyByName(name string) (grm.Policy, error) {
	switch name {
	case "usage-aware":
		return grm.UsageAware{}, nil
	case "best-fit":
		return grm.BestFit{}, nil
	case "random":
		return grm.Random{}, nil
	case "round-robin":
		return &grm.RoundRobin{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
