package constraint

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Schema is an ordered list of distinct property names, the shape of every
// Record built against it. Schemas are interned — the same names in the same
// order are one pointer — and never freed; each carries a process-unique id,
// under which a Field remembers a slot.
type Schema struct {
	id     uint32
	sorted []string // the names, ascending
	slots  []int32  // slots[i] is the position of sorted[i] in the declared order
}

// schemas is the intern table, keyed by the quoted names.
var schemas = struct {
	mu    sync.Mutex
	byKey map[string]*Schema
}{byKey: make(map[string]*Schema)}

// NewSchema returns the schema of the given names in the given order. It
// panics on a repeated name: a schema is written out in source or derived
// from a map's keys, so a duplicate is a bug in the caller.
func NewSchema(names ...string) *Schema {
	key := fmt.Sprintf("%q", names)
	schemas.mu.Lock()
	defer schemas.mu.Unlock()
	if s := schemas.byKey[key]; s != nil {
		return s
	}
	s := &Schema{
		id:     uint32(len(schemas.byKey) + 1), // 0 is a Field's "not bound yet"
		sorted: make([]string, len(names)),
		slots:  make([]int32, len(names)),
	}
	for i := range s.slots {
		s.slots[i] = int32(i)
	}
	slices.SortFunc(s.slots, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	for i, slot := range s.slots {
		s.sorted[i] = names[slot]
		if i > 0 && s.sorted[i-1] == s.sorted[i] {
			panic(fmt.Sprintf("constraint: schema repeats property %q", s.sorted[i]))
		}
	}
	schemas.byKey[key] = s
	return s
}

// slot returns the position of name in the declared order.
func (s *Schema) slot(name string) (int, bool) {
	i, found := slices.BinarySearch(s.sorted, name)
	if !found {
		return 0, false
	}
	return int(s.slots[i]), true
}

// Record returns the record holding values[i] for the schema's i-th name. It
// takes ownership of values — the record is immutable, so the caller must not
// write to the slice again, or keep it — and panics when the lengths differ:
// values is written out against the schema in source.
func (s *Schema) Record(values []Value) *Record {
	r := s.Header(values)
	return &r
}

// Header is Record as a value, for a holder that keeps the record's header
// inside itself — beside the values, as the trader's updated offers do — and
// takes ownership of values on the same terms.
func (s *Schema) Header(values []Value) Record {
	if len(values) != len(s.sorted) {
		s.misfit(len(values))
	}
	return Record{schema: s, values: values}
}

// misfit panics: n values were given for the schema.
//
//lint:coldpath a bug in the caller
func (s *Schema) misfit(n int) {
	panic(fmt.Sprintf("constraint: %d values for a schema of %d properties", n, len(s.sorted)))
}

// Record is an immutable property list, one Value per name of its Schema: the
// stored form of a trader offer's properties. Nothing can write to one, so it
// may be shared between offers, goroutines and traders. A nil *Record is empty.
type Record struct {
	schema *Schema
	values []Value
}

// Parts returns the record's schema and its values, values[i] being the
// schema's i-th, for a holder that copies them into a record of its own. The
// values are the record's: read them, never write them.
func (r *Record) Parts() (*Schema, []Value) { return r.schema, r.values }

// Property implements Context.
func (r *Record) Property(name string) (Value, bool) {
	if r == nil {
		return Value{}, false
	}
	i, ok := r.schema.slot(name)
	if !ok {
		return Value{}, false
	}
	return r.values[i], true
}

// Get returns the named property, or the zero Value when it is absent.
func (r *Record) Get(name string) Value {
	v, _ := r.Property(name)
	return v
}

// Len returns the number of properties.
func (r *Record) Len() int {
	if r == nil {
		return 0
	}
	return len(r.values)
}

// All iterates over the properties in ascending name order.
func (r *Record) All() iter.Seq2[string, Value] {
	return func(yield func(string, Value) bool) {
		if r == nil {
			return
		}
		for i, name := range r.schema.sorted {
			if !yield(name, r.values[r.schema.slots[i]]) {
				return
			}
		}
	}
}

// Record converts the map to its immutable form, under the schema of its
// names in ascending order.
func (p Properties) Record() *Record {
	names := slices.Sorted(maps.Keys(p))
	values := make([]Value, len(names))
	for i, k := range names {
		values[i] = p[k]
	}
	return NewSchema(names...).Record(values)
}

// Field is a reference to one property by name. Reading a Record through it
// is a compare and an index, not a name lookup: the Field remembers where its
// name sits in the schema it met last, as one atomic word (schema id in the
// high half, slot+1 in the low half, 0 for "not there"). A record of another
// schema rebinds it; when schemas alternate every read rebinds, which is as
// slow as a lookup by name and as correct, because a read only trusts a word
// whose id matches the record in hand. Safe for concurrent use; do not copy.
type Field struct {
	name  string
	bound atomic.Uint64
}

// NewField returns a Field naming the property.
func NewField(name string) *Field { return &Field{name: name} }

// Of reads the field's property from ctx; ok is false when ctx lacks it.
//
//lint:hotpath alloc=0 locks=0
func (f *Field) Of(ctx Context) (Value, bool) {
	r, isRecord := ctx.(*Record)
	if !isRecord {
		return ctx.Property(f.name)
	}
	if r == nil {
		return Value{}, false
	}
	b := f.bound.Load()
	if uint32(b>>32) != r.schema.id { // bound to another schema, or not yet
		b = f.rebind(r.schema)
	}
	if uint32(b) == 0 {
		return Value{}, false
	}
	return r.values[uint32(b)-1], true
}

// rebind binds the field to s: it looks the name up, remembers the answer as
// the word described above, and returns it.
func (f *Field) rebind(s *Schema) uint64 {
	b := uint64(s.id) << 32
	if i, ok := s.slot(f.name); ok {
		b |= uint64(i + 1)
	}
	f.bound.Store(b)
	return b
}
