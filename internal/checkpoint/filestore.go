package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"integrade/internal/bsp"
	"integrade/internal/orb"
)

// Checkpoint files start with a fixed magic followed by a CRC32 (IEEE) of
// the payload, both big-endian; a record without the magic, or whose checksum
// does not match, is corrupt (torn write, bit rot) and is never restored from.
var fileMagic = [4]byte{'I', 'C', 'K', '1'}

const fileHeaderLen = 8 // magic + crc32

// prevSuffix is appended to a snapshot's previous epoch, kept as the
// fallback when the current file fails its integrity check.
const prevSuffix = ".prev"

// ErrCorrupt indicates a checkpoint file failed its integrity check: no
// header, or a CRC32 mismatch.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot file")

// FileStore persists snapshots to a directory, one file per application, so
// a restarted cluster manager can resume applications across process
// crashes — the durability the in-memory Store lacks. Snapshots use the
// portable wire encoding, so files move freely between architectures.
//
// Each record carries a CRC32 integrity header, and Save keeps the previous
// epoch next to the new one: when the current file is corrupt, Latest falls
// back to the previous epoch (one superstep window of lost progress) instead
// of failing the resume outright.
//
// It is safe for concurrent use (each Save writes a temp file and renames).
type FileStore struct {
	dir string
	now func() time.Time
}

// NewFileStore returns a FileStore rooted at dir, creating it if needed.
func NewFileStore(dir string, now func() time.Time) (*FileStore, error) {
	if now == nil {
		now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store dir: %w", err)
	}
	return &FileStore{dir: dir, now: now}, nil
}

// Dir returns the store's directory.
func (fs *FileStore) Dir() string { return fs.dir }

func (fs *FileStore) path(appID string) string {
	return filepath.Join(fs.dir, sanitize(appID)+".ckpt")
}

// Save stores the snapshot for an application, atomically. The previously
// current file (if any) is rotated to the ".prev" fallback first, so two
// epochs exist on disk at all times.
func (fs *FileStore) Save(appID string, superstep int, states [][]byte) error {
	if appID == "" {
		return errors.New("checkpoint: empty app ID")
	}
	cp := Snapshot{
		AppID:     appID,
		Superstep: superstep,
		States:    states,
		TakenAt:   fs.now(),
	}
	var e orb.Encoder
	cp.Encode(&e)
	payload := e.Bytes()
	buf := make([]byte, fileHeaderLen+len(payload))
	copy(buf, fileMagic[:])
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[fileHeaderLen:], payload)

	tmp, err := os.CreateTemp(fs.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	path := fs.path(appID)
	// Keep the old epoch as the corruption fallback. A failed rotation is
	// not fatal — the new epoch still lands.
	if _, err := os.Stat(path); err == nil {
		_ = os.Rename(path, path+prevSuffix)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// Latest returns the stored snapshot for an application. A current file that
// fails its integrity check is passed over and the previous epoch is restored
// instead; only when both epochs are unusable does Latest fail.
func (fs *FileStore) Latest(appID string) (Snapshot, error) {
	path := fs.path(appID)
	cp, err := fs.load(path, appID)
	if err == nil {
		return cp, nil
	}
	if errors.Is(err, os.ErrNotExist) {
		return Snapshot{}, fmt.Errorf("%w for %q", ErrNoSnapshot, appID)
	}
	prev, perr := fs.load(path+prevSuffix, appID)
	if perr != nil {
		if errors.Is(perr, os.ErrNotExist) {
			return Snapshot{}, err
		}
		return Snapshot{}, fmt.Errorf("checkpoint: both epochs unusable for %q: %v; previous: %w", appID, err, perr)
	}
	return prev, nil
}

// load reads and verifies one snapshot file.
func (fs *FileStore) load(path, appID string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Snapshot{}, err
		}
		return Snapshot{}, fmt.Errorf("checkpoint: read: %w", err)
	}
	if len(data) < fileHeaderLen || [4]byte(data[:4]) != fileMagic {
		return Snapshot{}, fmt.Errorf("%w: %q has no %s header", ErrCorrupt, appID, fileMagic[:])
	}
	payload := data[fileHeaderLen:]
	want := binary.BigEndian.Uint32(data[4:8])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Snapshot{}, fmt.Errorf("%w: %q crc 0x%08x, want 0x%08x", ErrCorrupt, appID, got, want)
	}
	cp, err := DecodeSnapshot(orb.NewDecoder(payload))
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: decode %q: %w", appID, err)
	}
	return cp, nil
}

// Drop removes an application's snapshot files (both epochs).
func (fs *FileStore) Drop(appID string) {
	_ = os.Remove(fs.path(appID))
	_ = os.Remove(fs.path(appID) + prevSuffix)
}

// Apps lists applications with snapshot files, sorted.
func (st *FileStore) Apps() []string {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, strings.TrimSuffix(name, ".ckpt"))
	}
	sort.Strings(out)
	return out
}

// Sink adapts the file store to bsp.CheckpointSink for one application.
func (fs *FileStore) Sink(appID string) bsp.CheckpointSink {
	return sinkFunc(func(superstep int, states [][]byte) error {
		return fs.Save(appID, superstep, states)
	})
}

// sanitize keeps app IDs filesystem-safe.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, id)
}
