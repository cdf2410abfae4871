//go:build e2e && linux

package e2e

import (
	"fmt"
	"regexp"
	"testing"
	"time"
)

var reregisteredLine = regexp.MustCompile(`msg="re-registered with GRM"`)

// TestLeaderKill: a replica set of three managers, two agents that list all
// three and update every second, and a two-task application submitted
// through a follower, whose forward the ASCT follows to the leader m0. The
// leader answers the submission once the application is committed, so m0
// gets SIGKILL as soon as the submit returns. The test prints the time from
// the kill until each agent logs that it re-registered, fails above 30 s, and
// the application must still complete; it prints the agents its tasks ran on,
// which the new leader calls as it takes office.
func TestLeaderKill(t *testing.T) {
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	peers := fmt.Sprintf("m0=%s,m1=%s,m2=%s", addrs[0], addrs[1], addrs[2])
	// The followers first: the leader's first replication round needs a
	// quorum.
	grm(t, "m1", addrs[1], "-id", "m1", "-peers", peers)
	grm(t, "m2", addrs[2], "-id", "m2", "-peers", peers)
	m0 := grm(t, "m0", addrs[0], "-id", "m0", "-peers", peers, "-bootstrap")
	agents := []*proc{lrm(t, "n1", time.Second, addrs...), lrm(t, "n2", time.Second, addrs...)}

	appID := submit(t, addrs[1], 8000) // sixteen seconds a task
	killed := time.Now()
	m0.kill()
	for _, a := range agents {
		l := a.await(t, reregisteredLine, killed, 30*time.Second)
		t.Logf("%s re-registered %.1f s after the kill: %s", a.name, l.at.Sub(killed).Seconds(), l.text)
	}
	st := awaitApp(t, addrs[1], appID, 90*time.Second, done)
	var ran []string
	for _, task := range st.Tasks {
		ran = append(ran, task.NodeID)
	}
	t.Logf("app %s done %.1f s after the kill, its tasks on %v", appID, time.Since(killed).Seconds(), ran)
}
