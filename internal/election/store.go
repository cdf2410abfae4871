package election

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"integrade/internal/orb"
)

// Stable persists the Raft hard state — current term and the vote cast in
// it — which must survive a restart: a node that forgets its vote could
// grant two ballots in one term and elect two leaders. Implementations must
// be safe for concurrent use.
type Stable interface {
	// Load returns the last saved term and vote; a store with no prior
	// state returns (0, "", nil).
	Load() (term int, votedFor string, err error)
	// Save durably records the term and vote before the caller acts on them.
	Save(term int, votedFor string) error
}

// MemoryStore is the in-process Stable used by the simulated grid, where a
// "restart" rebuilds the node but the store object survives.
type MemoryStore struct {
	mu       sync.Mutex
	term     int
	votedFor string
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore { return &MemoryStore{} }

// Load implements Stable.
func (s *MemoryStore) Load() (int, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term, s.votedFor, nil
}

// Save implements Stable.
func (s *MemoryStore) Save(term int, votedFor string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.term = term
	s.votedFor = votedFor
	return nil
}

// A hard-state file is the ICK1 magic followed by a big-endian CRC32 (IEEE)
// of the payload, written temp-file-then-rename with the previous epoch kept
// as a ".prev" fallback.
var fileMagic = [4]byte{'I', 'C', 'K', '1'}

const (
	fileHeaderLen = 8 // magic + crc32
	prevSuffix    = ".prev"
	stateFileName = "election.state"
)

// ErrCorrupt indicates a hard-state file failed its CRC32 integrity check.
var ErrCorrupt = errors.New("election: corrupt state file")

// FileStore persists the hard state to one file in a directory, for real
// deployments (cmd/integrade-grm) where the process itself restarts. Safe
// for concurrent use.
type FileStore struct {
	mu  sync.Mutex
	dir string
}

// NewFileStore returns a FileStore rooted at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("election: create state dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

func (s *FileStore) path() string { return filepath.Join(s.dir, stateFileName) }

// Save implements Stable: atomic write with the CRC header, rotating the
// previous state to the ".prev" fallback first.
func (s *FileStore) Save(term int, votedFor string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var e orb.Encoder
	e.PutInt(term)
	e.PutString(votedFor)
	payload := e.Bytes()
	buf := make([]byte, fileHeaderLen+len(payload))
	copy(buf, fileMagic[:])
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[fileHeaderLen:], payload)

	tmp, err := os.CreateTemp(s.dir, ".state-*")
	if err != nil {
		return fmt.Errorf("election: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("election: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("election: close: %w", err)
	}
	path := s.path()
	if _, err := os.Stat(path); err == nil {
		_ = os.Rename(path, path+prevSuffix)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("election: rename: %w", err)
	}
	return nil
}

// Load implements Stable: a missing file is a fresh store; a corrupt current
// file falls back to the previous epoch. Falling back can at worst forget
// the newest vote, which costs liveness (a repeated election), never safety:
// the CRC guarantees what is loaded was once durably written.
func (s *FileStore) Load() (int, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	term, vote, err := s.read(s.path())
	if err == nil {
		return term, vote, nil
	}
	if errors.Is(err, os.ErrNotExist) {
		return 0, "", nil
	}
	pterm, pvote, perr := s.read(s.path() + prevSuffix)
	if perr == nil {
		return pterm, pvote, nil
	}
	if errors.Is(perr, os.ErrNotExist) {
		return 0, "", err
	}
	return 0, "", fmt.Errorf("election: both state epochs unusable: %v; previous: %w", err, perr)
}

func (s *FileStore) read(path string) (int, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, "", err
	}
	if len(data) < fileHeaderLen || [4]byte(data[:4]) != fileMagic {
		return 0, "", fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	payload := data[fileHeaderLen:]
	if binary.BigEndian.Uint32(data[4:8]) != crc32.ChecksumIEEE(payload) {
		return 0, "", fmt.Errorf("%w: checksum mismatch in %s", ErrCorrupt, path)
	}
	d := orb.NewDecoder(payload)
	term := d.Int()
	vote := d.String()
	if err := d.Err(); err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return term, vote, nil
}
