package resource

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Reservation errors returned by Ledger operations.
var (
	// ErrInsufficient indicates the requested amount does not fit in the
	// currently free capacity.
	ErrInsufficient = errors.New("resource: insufficient free capacity")
	// ErrUnknownReservation indicates the reservation ID is not (or no
	// longer) held by the ledger.
	ErrUnknownReservation = errors.New("resource: unknown reservation")
)

// Reservation is a time-limited hold on part of a node's capacity, granted
// by an LRM during the Resource Reservation Protocol.
type Reservation struct {
	ID      string
	Amount  Vector
	Expires time.Time
	Holder  string // application or request identifier
}

// Ledger tracks a node's capacity against its outstanding reservations and
// committed (executing) allocations. It is safe for concurrent use.
//
// Invariant: Reserved + Committed always fits Capacity, component-wise.
type Ledger struct {
	// mu guards capacity, committed, reserved and seq.
	mu        sync.Mutex
	capacity  Vector
	committed Vector
	reserved  map[string]Reservation
	seq       int
}

// NewLedger returns a Ledger over the given capacity.
func NewLedger(capacity Vector) *Ledger {
	return &Ledger{
		capacity: capacity,
		reserved: make(map[string]Reservation),
	}
}

// Capacity returns the total capacity managed by the ledger.
func (l *Ledger) Capacity() Vector {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.capacity
}

// Free returns capacity not reserved or committed, as of now (expired
// reservations are pruned first).
func (l *Ledger) Free(now time.Time) Vector {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pruneLocked(now)
	return l.freeLocked()
}

// Committed returns the currently committed amount.
func (l *Ledger) Committed() Vector {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

// Reserve attempts to hold amount until expires. On success it returns the
// reservation. It fails with ErrInsufficient when amount does not fit the
// free capacity — the signal the GRM interprets as "select another
// candidate" in the reservation protocol.
func (l *Ledger) Reserve(amount Vector, holder string, now, expires time.Time) (Reservation, error) {
	if !amount.NonNegative() {
		return Reservation{}, fmt.Errorf("resource: negative reservation amount %v", amount)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pruneLocked(now)
	if !amount.Fits(l.freeLocked()) {
		return Reservation{}, ErrInsufficient
	}
	l.seq++
	res := Reservation{
		ID:      fmt.Sprintf("rsv-%d", l.seq),
		Amount:  amount,
		Expires: expires,
		Holder:  holder,
	}
	l.reserved[res.ID] = res
	return res, nil
}

// Commit converts a reservation into a committed allocation (the execution
// phase of the protocol). The reservation is consumed.
func (l *Ledger) Commit(id string, now time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pruneLocked(now)
	res, ok := l.reserved[id]
	if !ok {
		return fmt.Errorf("commit %q: %w", id, ErrUnknownReservation)
	}
	delete(l.reserved, id)
	l.committed = l.committed.Add(res.Amount)
	return nil
}

// Cancel releases a reservation without committing it.
func (l *Ledger) Cancel(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.reserved[id]; !ok {
		return fmt.Errorf("cancel %q: %w", id, ErrUnknownReservation)
	}
	delete(l.reserved, id)
	return nil
}

// Release returns a committed amount to the free pool when a task finishes
// or is evicted.
func (l *Ledger) Release(amount Vector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.committed = l.committed.Sub(amount).Clamp()
}

// Outstanding returns the live reservations sorted by ID, for inspection.
func (l *Ledger) Outstanding(now time.Time) []Reservation {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pruneLocked(now)
	out := make([]Reservation, 0, len(l.reserved))
	for _, r := range l.reserved {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (l *Ledger) freeLocked() Vector {
	free := l.capacity.Sub(l.committed)
	for _, r := range l.reserved {
		free = free.Sub(r.Amount)
	}
	return free.Clamp()
}

func (l *Ledger) pruneLocked(now time.Time) {
	for id, r := range l.reserved {
		if !r.Expires.After(now) {
			delete(l.reserved, id)
		}
	}
}
