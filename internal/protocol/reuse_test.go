package protocol

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"integrade/internal/orb"
)

// sameBytes reports whether two strings share their bytes, not just equal.
func sameBytes(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// aliases reports whether s points into buf.
func aliases(s string, buf []byte) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	start := uintptr(unsafe.Pointer(&buf[0]))
	return p >= start && p < start+uintptr(len(buf))
}

// TestUpdateEventsReadIDsInPlace: an update's events decode one at a time, in
// order. Their node ID is the status's string when the bytes equal it, and a
// copy that does not alias the frame when they do not; their application and
// task IDs are returned as the frame's own bytes, for the receiver to look up
// without copying, and Collect copies them. An update decodes without
// allocating.
func TestUpdateEventsReadIDsInPlace(t *testing.T) {
	s, events, _ := updateBody()
	events = append(events, TaskEvent{Kind: TaskEventDone, AppID: "app-2", TaskID: "app-2/t0", NodeID: "node-9", At: s.Timestamp})
	var e orb.Encoder
	EncodeUpdate(&e, s, events)
	body := e.Bytes()
	record := s
	record.NodeID = strings.Clone(s.NodeID)
	var buf [MaxWindows]AvailWindow
	got, _, rest, err := DecodeUpdate(orb.NewDecoder(body), &record, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rest.Len() != 3 {
		t.Fatalf("%d events, want 3", rest.Len())
	}
	for i, want := range events {
		ev, appID, taskID := rest.Next()
		if ev.AppID != "" || ev.TaskID != "" {
			t.Fatalf("event %d carries IDs %q, %q beside their bytes", i, ev.AppID, ev.TaskID)
		}
		if !aliases(unsafe.String(&appID[0], len(appID)), body) || !aliases(unsafe.String(&taskID[0], len(taskID)), body) {
			t.Fatalf("event %d: IDs are not the frame's bytes", i)
		}
		ev.AppID, ev.TaskID = string(appID), string(taskID)
		if ev != want {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
		if aliases(ev.NodeID, body) {
			t.Fatalf("event %d: node ID aliases the frame", i)
		}
		if shared := sameBytes(ev.NodeID, got.NodeID); shared != (i < 2) {
			t.Errorf("event %d: node ID shares the status's: %v", i, shared)
		}
	}
	if rest.Len() != 0 {
		t.Fatalf("%d events left after the last", rest.Len())
	}

	_, _, rest, err = DecodeUpdate(orb.NewDecoder(body), &record, &buf)
	if err != nil {
		t.Fatal(err)
	}
	collected := rest.Collect()
	if !slices.Equal(collected, events) {
		t.Fatalf("Collect = %+v, want %+v", collected, events)
	}
	for i, ev := range collected {
		for _, f := range []string{ev.AppID, ev.TaskID, ev.NodeID} {
			if aliases(f, body) {
				t.Fatalf("collected event %d: %q aliases the frame", i, f)
			}
		}
	}

	// Decoding the events of a node that reports as itself allocates nothing.
	_, _, body = updateBody()
	allocs := testing.AllocsPerRun(100, func() {
		_, _, rest, err := DecodeUpdate(orb.NewDecoder(body), &record, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for rest.Len() > 0 {
			rest.Next()
		}
	})
	if allocs != 0 {
		t.Errorf("an update's events: %v allocations, want 0", allocs)
	}
}

// TestAppStatusReusesEarlierPoll: a status decoded against one fetched before
// shares its strings wherever the wire bytes equal them — task by task — and
// copies the ones that changed, a task new since then included; nothing
// aliases the reply's frame.
func TestAppStatusReusesEarlierPoll(t *testing.T) {
	before := AppStatus{
		AppID: strings.Clone("app-7"), Name: strings.Clone("render"), Kind: AppParametric,
		Tasks: []TaskStatus{
			{TaskID: strings.Clone("app-7/t0"), State: TaskPending},
			{TaskID: strings.Clone("app-7/t1"), NodeID: strings.Clone("n03"), State: TaskRunning},
		},
	}
	now := before
	now.Tasks = []TaskStatus{
		{TaskID: "app-7/t0", NodeID: "n05", State: TaskRunning},
		{TaskID: "app-7/t1", NodeID: "n03", State: TaskDone},
		{TaskID: "app-7/t2", NodeID: "n03", State: TaskRunning},
	}
	var e orb.Encoder
	now.Encode(&e)
	got, err := decodeAppStatus(orb.NewDecoder(e.Bytes()), &before)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppID != now.AppID || got.Name != now.Name || len(got.Tasks) != 3 {
		t.Fatalf("decoded %+v, want %+v", got, now)
	}
	for i := range got.Tasks {
		if got.Tasks[i] != now.Tasks[i] {
			t.Fatalf("task %d = %+v, want %+v", i, got.Tasks[i], now.Tasks[i])
		}
	}
	for name, c := range map[string]struct {
		got, was string
		shared   bool
	}{
		"app ID":        {got.AppID, before.AppID, true},
		"name":          {got.Name, before.Name, true},
		"t0's ID":       {got.Tasks[0].TaskID, before.Tasks[0].TaskID, true},
		"t0's node":     {got.Tasks[0].NodeID, before.Tasks[0].NodeID, false},
		"t1's ID":       {got.Tasks[1].TaskID, before.Tasks[1].TaskID, true},
		"t1's node":     {got.Tasks[1].NodeID, before.Tasks[1].NodeID, true},
		"new t2's ID":   {got.Tasks[2].TaskID, "", false},
		"new t2's node": {got.Tasks[2].NodeID, "", false},
	} {
		if shared := sameBytes(c.got, c.was); shared != c.shared {
			t.Errorf("%s: shares the earlier poll's bytes %v, want %v", name, shared, c.shared)
		}
		if aliases(c.got, e.Bytes()) {
			t.Errorf("%s aliases the reply's frame", name)
		}
	}
}
