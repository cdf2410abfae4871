package orb

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// Decode opcodes for the interpretive fuzzer below. The program drives the
// Decoder through arbitrary Get sequences, mirroring how servants decode
// CDR-like request bodies field by field.
const (
	opU8 = iota
	opBool
	opU32
	opU64
	opI64
	opInt
	opF64
	opString
	opBytes
	opTime
	opDuration
	opStrings
	numOps
)

// captureFrame encodes fr exactly as the wire protocol does and returns the
// unframed message bytes (what a Decoder sees).
func captureFrame(fr *frame) []byte {
	var b bytes.Buffer
	if err := writeFrame(&b, new(Encoder), fr); err != nil {
		panic(err)
	}
	return b.Bytes()[4:] // strip the u32 length prefix
}

// seedProgram prefixes payload with a decode program.
func seedProgram(ops []byte, payload []byte) []byte {
	out := []byte{byte(len(ops))}
	out = append(out, ops...)
	return append(out, payload...)
}

// FuzzUnmarshal drives the ORB's CDR-like Decoder with arbitrary decode
// programs over arbitrary payloads (seeded with captured wire frames) and
// checks the decoder's contracts:
//
//   - no Get sequence panics, whatever the input;
//   - Remaining never goes negative and never grows;
//   - the first error is sticky: later Gets return zero values and do not
//     change Err;
//   - values decoded before any error re-encode and re-decode to the same
//     values (Encoder/Decoder round-trip).
func FuzzUnmarshal(f *testing.F) {
	// Captured wire frames as corpus seeds, with programs that mirror how
	// readFrame actually walks them.
	reqProgram := []byte{opU32, opU8, opU8, opU64, opString, opString, opBytes}
	req := captureFrame(&frame{kind: msgRequest, reqID: 42, key: "grm", op: "update", body: []byte("status")})
	f.Add(seedProgram(reqProgram, req))
	errProgram := []byte{opU32, opU8, opU8, opU64, opU32, opString, opBytes}
	errFrame := captureFrame(&frame{kind: msgError, reqID: 7, code: CodeTimeout, msg: "deadline", body: nil})
	f.Add(seedProgram(errProgram, errFrame))

	// A typed body covering every opcode.
	var e Encoder
	e.PutU8(9)
	e.PutBool(true)
	e.PutU32(1 << 20)
	e.PutU64(1 << 40)
	e.PutI64(-5)
	e.PutInt(12345)
	e.PutF64(math.Pi)
	e.PutString("node-17")
	e.PutBytes([]byte{0, 1, 2})
	e.PutTime(time.Date(2026, time.January, 5, 8, 30, 0, 999, time.UTC))
	e.PutDuration(90 * time.Second)
	e.PutStrings([]string{"a", "bb"})
	all := []byte{opU8, opBool, opU32, opU64, opI64, opInt, opF64, opString, opBytes, opTime, opDuration, opStrings}
	f.Add(seedProgram(all, e.Bytes()))

	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{4, opString, opStrings, opBytes, opTime, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 24
		if 1+n > len(data) {
			n = len(data) - 1
		}
		program := data[1 : 1+n]
		payload := data[1+n:]

		d := NewDecoder(payload)
		values, consumed := runProgram(t, d, program)

		// Round-trip: re-encode the successfully decoded prefix and decode
		// it again with the same program prefix.
		var re Encoder
		encodeValues(&re, values)
		d2 := NewDecoder(re.Bytes())
		values2, _ := runProgram(t, d2, program[:consumed])
		if err := d2.Err(); err != nil {
			t.Fatalf("re-decoding re-encoded values failed: %v", err)
		}
		if len(values2) != len(values) {
			t.Fatalf("round-trip decoded %d values, want %d", len(values2), len(values))
		}
		for i := range values {
			if !valueEqual(values[i], values2[i]) {
				t.Fatalf("round-trip value %d: got %#v, want %#v", i, values2[i], values[i])
			}
		}
	})
}

// runProgram executes decode ops until the first error, checking Decoder
// invariants. It returns the successfully decoded values and how many ops
// completed without error.
func runProgram(t *testing.T, d *Decoder, program []byte) ([]any, int) {
	t.Helper()
	prevRemaining := d.Remaining()
	if prevRemaining < 0 {
		t.Fatalf("negative Remaining at start: %d", prevRemaining)
	}
	var values []any
	for i, op := range program {
		var v any
		switch op % numOps {
		case opU8:
			v = d.U8()
		case opBool:
			v = d.Bool()
		case opU32:
			v = d.U32()
		case opU64:
			v = d.U64()
		case opI64:
			v = d.I64()
		case opInt:
			v = d.Int()
		case opF64:
			v = d.F64()
		case opString:
			v = d.String()
		case opBytes:
			v = d.Bytes()
		case opTime:
			v = d.Time()
		case opDuration:
			v = d.Duration()
		case opStrings:
			v = d.Strings()
		}
		r := d.Remaining()
		if r < 0 || r > prevRemaining {
			t.Fatalf("Remaining went from %d to %d after op %d", prevRemaining, r, op%numOps)
		}
		prevRemaining = r
		if err := d.Err(); err != nil {
			// Sticky error: further reads must return zero values and must
			// not change the error.
			if got := d.U64(); got != 0 {
				t.Fatalf("read after error returned %d, want 0", got)
			}
			if d.Err() != err {
				t.Fatalf("error not sticky: %v then %v", err, d.Err())
			}
			return values, i
		}
		values = append(values, v)
	}
	return values, len(program)
}

// encodeValues writes decoded values back through the Encoder.
func encodeValues(e *Encoder, values []any) {
	for _, v := range values {
		switch x := v.(type) {
		case uint8:
			e.PutU8(x)
		case bool:
			e.PutBool(x)
		case uint32:
			e.PutU32(x)
		case uint64:
			e.PutU64(x)
		case int64:
			e.PutI64(x)
		case int:
			e.PutInt(x)
		case float64:
			e.PutF64(x)
		case string:
			e.PutString(x)
		case []byte:
			e.PutBytes(x)
		case time.Time:
			e.PutTime(x)
		case time.Duration:
			e.PutDuration(x)
		case []string:
			e.PutStrings(x)
		}
	}
}

// valueEqual compares decoded values, treating NaN as equal to itself and
// nil slices as equal to empty ones (Bytes/Strings return copies).
func valueEqual(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		if !ok {
			return false
		}
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	case []string:
		y, ok := b.([]string)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}
