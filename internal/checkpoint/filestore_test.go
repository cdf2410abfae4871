package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"integrade/internal/bsp"
	"integrade/internal/orb"
)

func TestFileStoreSaveLatestDrop(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(500, 0).UTC()
	fs, err := NewFileStore(dir, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	if fs.Dir() != dir {
		t.Fatalf("Dir = %q", fs.Dir())
	}
	if err := fs.Save("", 1, nil); err == nil {
		t.Fatal("empty app ID accepted")
	}
	if err := fs.Save("app-1", 3, [][]byte{u64(7), u64(9)}); err != nil {
		t.Fatal(err)
	}
	cp, err := fs.Latest("app-1")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Superstep != 3 || len(cp.States) != 2 || fromU64(cp.States[1]) != 9 {
		t.Fatalf("snapshot = %+v", cp)
	}
	if !cp.TakenAt.Equal(now) {
		t.Fatalf("TakenAt = %v", cp.TakenAt)
	}
	// Replace.
	if err := fs.Save("app-1", 5, [][]byte{u64(1), u64(2)}); err != nil {
		t.Fatal(err)
	}
	cp, _ = fs.Latest("app-1")
	if cp.Superstep != 5 {
		t.Fatalf("superstep = %d", cp.Superstep)
	}
	if got := fs.Apps(); len(got) != 1 || got[0] != "app-1" {
		t.Fatalf("Apps = %v", got)
	}
	fs.Drop("app-1")
	if _, err := fs.Latest("app-1"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err after Drop = %v", err)
	}
	if len(fs.Apps()) != 0 {
		t.Fatal("Apps after Drop not empty")
	}
}

func TestFileStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fs1, err := NewFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs1.Save("job", 4, [][]byte{u64(42)}); err != nil {
		t.Fatal(err)
	}
	// A "new process" opens the same directory.
	fs2, err := NewFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := fs2.Latest("job")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Superstep != 4 || fromU64(cp.States[0]) != 42 {
		t.Fatalf("snapshot after restart = %+v", cp)
	}
}

func TestFileStoreSanitizesIDs(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	weird := "cluster/app:1 *"
	if err := fs.Save(weird, 1, [][]byte{u64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Latest(weird); err != nil {
		t.Fatal(err)
	}
	// The file must live directly in dir (no path traversal).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].IsDir() {
		t.Fatalf("entries = %v", entries)
	}
	if filepath.Dir(filepath.Join(dir, entries[0].Name())) != dir {
		t.Fatal("file escaped the store directory")
	}
}

func TestFileStoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.ckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Latest("bad"); err == nil {
		t.Fatal("corrupt snapshot decoded")
	}
}

// flipByte flips one bit in the middle of a file's payload region.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= fileHeaderLen {
		t.Fatalf("file too short to corrupt: %d bytes", len(data))
	}
	data[fileHeaderLen+len(data[fileHeaderLen:])/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreBitFlipFallsBackToPreviousEpoch is the integrity story end to
// end: a bit-flipped current epoch fails its CRC and Latest silently serves
// the previous epoch instead of failing the resume.
func TestFileStoreBitFlipFallsBackToPreviousEpoch(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job", 2, [][]byte{u64(11), u64(12)}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job", 4, [][]byte{u64(21), u64(22)}); err != nil {
		t.Fatal(err)
	}
	// Sanity: the current epoch wins while intact.
	cp, err := fs.Latest("job")
	if err != nil || cp.Superstep != 4 {
		t.Fatalf("Latest before corruption = %+v, %v", cp, err)
	}
	flipByte(t, fs.path("job"))
	cp, err = fs.Latest("job")
	if err != nil {
		t.Fatalf("Latest after bit flip: %v", err)
	}
	if cp.Superstep != 2 || fromU64(cp.States[0]) != 11 || fromU64(cp.States[1]) != 12 {
		t.Fatalf("fallback snapshot = %+v, want the superstep-2 epoch", cp)
	}
	// Both epochs corrupt: the failure surfaces as ErrCorrupt.
	flipByte(t, fs.path("job")+prevSuffix)
	if _, err := fs.Latest("job"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err with both epochs corrupt = %v", err)
	}
	// Drop clears both epochs.
	fs.Drop("job")
	if _, err := os.Stat(fs.path("job") + prevSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("previous epoch survived Drop: %v", err)
	}
}

// TestFileStoreCorruptWithoutFallbackFails: a single corrupt epoch with no
// previous file to fall back to is an error, not a silent empty resume.
func TestFileStoreCorruptWithoutFallbackFails(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("solo", 1, [][]byte{u64(7)}); err != nil {
		t.Fatal(err)
	}
	flipByte(t, fs.path("solo"))
	if _, err := fs.Latest("solo"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestFileStoreRejectsHeaderlessFiles: a file without the ICK1 header — a
// bare wire-encoded snapshot that decodes cleanly — is corrupt like a CRC
// mismatch. Latest falls back to the previous epoch, and with none left it
// fails with ErrCorrupt.
func TestFileStoreRejectsHeaderlessFiles(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeHeaderless := func(appID string, superstep int) {
		t.Helper()
		cp := Snapshot{AppID: appID, Superstep: superstep, States: [][]byte{u64(5)}, TakenAt: time.Unix(9, 0).UTC()}
		var e orb.Encoder
		cp.Encode(&e)
		if err := os.WriteFile(fs.path(appID), e.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := fs.Save("job", 2, [][]byte{u64(11)}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job", 4, [][]byte{u64(21)}); err != nil {
		t.Fatal(err)
	}
	writeHeaderless("job", 6)
	cp, err := fs.Latest("job")
	if err != nil {
		t.Fatalf("Latest over a headerless current epoch: %v", err)
	}
	if cp.Superstep != 2 || fromU64(cp.States[0]) != 11 {
		t.Fatalf("fallback snapshot = %+v, want the superstep-2 epoch", cp)
	}

	writeHeaderless("solo", 3)
	if _, err := fs.Latest("solo"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestFileStoreAsBSPSink(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bsp.NewRuntime(2, bsp.WithCheckpoint(1, fs.Sink("bspjob")))
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(func(p *bsp.Proc) error {
		p.SetState(func() []byte { return u64(uint64(p.PID() + 100)) })
		return p.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := fs.Latest("bspjob")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Superstep != 1 || len(cp.States) != 2 || fromU64(cp.States[1]) != 101 {
		t.Fatalf("snapshot = %+v", cp)
	}
}

func TestNewFileStoreBadDir(t *testing.T) {
	// A path whose parent is a file must fail.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(filepath.Join(blocker, "sub"), nil); err == nil {
		t.Fatal("store created under a file")
	}
}
