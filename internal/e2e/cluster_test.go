//go:build linux

// Package e2e runs the daemons as a cluster: integrade-grm, integrade-lrm and
// integrade-asct, built once by TestMain, as processes on 127.0.0.1. Each
// process listens on a port the test picks, keeps its state under the test's
// temporary directory and is killed on every exit path, the test binary's own
// death included. Tests wait for the lines the daemons print, or poll a
// manager for an application's status, never for a fixed time. The happy
// path runs in the tier-1 suite; the leader kill, which takes tens of
// seconds, runs under the e2e build tag (make e2e).
package e2e

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// bin is the directory TestMain builds the three daemons into.
var bin string

func TestMain(m *testing.M) {
	os.Exit(run(m))
}

func run(m *testing.M) int {
	dir, err := os.MkdirTemp("", "integrade-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir,
		"integrade/cmd/integrade-grm", "integrade/cmd/integrade-lrm", "integrade/cmd/integrade-asct")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building the daemons: %v\n%s", err, out)
		return 1
	}
	bin = dir
	return m.Run()
}

// freeAddr returns a 127.0.0.1 address whose port was free a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// proc is one daemon the test started. Everything it prints, on stdout and
// stderr, is kept line by line with the time each line arrived.
type proc struct {
	name string
	cmd  *exec.Cmd

	mu      sync.Mutex
	lines   []line
	changed chan struct{} // closed and replaced on every new line, and at exit
	exited  bool
}

type line struct {
	at   time.Time
	text string
}

// start runs the named binary with args. The process is killed, and its
// output drained, when the test ends, and by the kernel if the test binary
// dies first.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{name: name, changed: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(bin, name), args...)
	p.cmd.Stdout, p.cmd.Stderr = w, w
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = p.cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			p.add(sc.Text())
		}
		p.mu.Lock()
		p.exited = true
		close(p.changed)
		p.mu.Unlock()
	}()
	t.Cleanup(func() {
		p.kill()
		<-done
		if t.Failed() {
			p.mu.Lock()
			for _, l := range p.lines {
				t.Logf("%s: %s", p.name, l.text)
			}
			p.mu.Unlock()
		}
	})
	return p
}

func (p *proc) add(text string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lines = append(p.lines, line{time.Now(), text})
	close(p.changed)
	p.changed = make(chan struct{})
}

// kill ends the process with SIGKILL and reaps it; a second call is a no-op.
func (p *proc) kill() {
	if p.cmd.ProcessState == nil {
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
	}
}

// await returns the first line matching re that arrived at or after since,
// failing the test if none has within timeout or the process has exited.
func (p *proc) await(t *testing.T, re *regexp.Regexp, since time.Time, timeout time.Duration) line {
	t.Helper()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for seen := 0; ; {
		p.mu.Lock()
		for _, l := range p.lines[seen:] {
			if !l.at.Before(since) && re.MatchString(l.text) {
				p.mu.Unlock()
				return l
			}
		}
		seen = len(p.lines)
		changed, exited := p.changed, p.exited
		p.mu.Unlock()
		if exited {
			t.Fatalf("%s exited before printing %q", p.name, re)
		}
		select {
		case <-changed:
		case <-deadline.C:
			t.Fatalf("%s printed no %q within %v", p.name, re, timeout)
		}
	}
}

// wait waits for the process to exit by itself, failing the test if it has
// not within timeout or exits with an error.
func (p *proc) wait(t *testing.T, timeout time.Duration) {
	t.Helper()
	exited := make(chan error, 1)
	go func() { exited <- p.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-exited
		t.Fatalf("%s still running after %v", p.name, timeout)
	}
}

var (
	upLine        = regexp.MustCompile(` up `)
	submittedLine = regexp.MustCompile(`^submitted: (\S+)$`)
)

// grm starts a cluster manager listening on addr and waits for it to come up.
func grm(t *testing.T, name, addr string, extra ...string) *proc {
	t.Helper()
	args := append([]string{"-listen", addr, "-cluster", "e2e", "-schedule-period", "1s",
		"-state-dir", filepath.Join(t.TempDir(), name)}, extra...)
	p := start(t, "integrade-grm", args...)
	p.name = name
	p.await(t, upLine, time.Time{}, 30*time.Second)
	return p
}

// lrm starts a dedicated resource provider reporting to the managers at
// grms, and waits for it to come up: its first update has been answered.
func lrm(t *testing.T, id string, period time.Duration, grms ...string) *proc {
	t.Helper()
	p := start(t, "integrade-lrm", "-listen", freeAddr(t), "-id", id, "-profile", "dedicated",
		"-update-period", period.String(), "-grm", strings.Join(grms, ","), "-v")
	p.name = id
	p.await(t, upLine, time.Time{}, 30*time.Second)
	return p
}

// submit submits a parametric application of two tasks of work MI each at
// 500 MIPS through the ASCT, and returns its ID.
func submit(t *testing.T, grmAddr string, work float64) string {
	t.Helper()
	p := start(t, "integrade-asct", "-grm", grmAddr, "submit", "-name", "e2e",
		"-kind", "parametric", "-tasks", "2", "-work", fmt.Sprint(work), "-mips", "500", "-ram", "64")
	l := p.await(t, submittedLine, time.Time{}, 30*time.Second)
	p.wait(t, 30*time.Second)
	return submittedLine.FindStringSubmatch(l.text)[1]
}

// awaitApp polls the manager at addr for the application's status until ok
// holds of it, and fails the test if it does not within timeout.
func awaitApp(t *testing.T, addr, appID string, timeout time.Duration, ok func(protocol.AppStatus) bool) protocol.AppStatus {
	t.Helper()
	o := orb.New()
	defer o.Close()
	client := protocol.NewGRMClient(o, orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetTCP, Addr: addr}, Key: protocol.GRMKey})
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	for {
		st, err := client.AppStatus(appID, nil)
		if err == nil && ok(st) {
			return st
		}
		select {
		case <-poll.C:
		case <-deadline.C:
			t.Fatalf("app %s at %s after %v: %+v, %v", appID, addr, timeout, st, err)
		}
	}
}

func done(st protocol.AppStatus) bool { return st.Done() }

// TestHappyPath: one manager, two dedicated agents and a two-task parametric
// application submitted through the ASCT, which reaches done.
func TestHappyPath(t *testing.T) {
	addr := freeAddr(t)
	grm(t, "m0", addr)
	lrm(t, "n1", 250*time.Millisecond, addr)
	lrm(t, "n2", 250*time.Millisecond, addr)
	appID := submit(t, addr, 250) // half a second of work a task
	st := awaitApp(t, addr, appID, 30*time.Second, done)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskDone || task.NodeID == "" {
			t.Errorf("task %+v, want done on a node", task)
		}
	}
}
