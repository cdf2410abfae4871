package hierarchy

import (
	"testing"

	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/testutil/optest"
)

// TestOpsRoundTrip checks both hierarchy operations' declarations against
// themselves (optest.Check).
func TestOpsRoundTrip(t *testing.T) {
	optest.Check(t, summaryOp, struct{}{}, Summary{
		ClusterID: "c0", Clusters: 3, Nodes: 40, FreeMIPS: 1e4,
		MaxNodeFreeMIPS: 900, TotalMIPS: 4e4,
	})
	spec := protocol.ApplicationSpec{
		Name: "render", Kind: protocol.AppParametric, NumTasks: 8, WorkPerTask: 1e5,
		Requirements: resource.Requirements{Platform: &linux, Min: resource.Vector{MIPS: 500}},
		Alloc:        resource.Vector{MIPS: 500, RAMMB: 32},
	}
	optest.Check(t, routeOp, routeRequest{Spec: spec, TTL: 3, Exclude: "c1"},
		RouteResult{ClusterID: "c2", AppID: "c2-app-1", Hops: 2})
}
