package orb_test

import (
	"encoding/binary"
	"testing"

	"integrade/internal/checkpoint"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/testutil/allocbudget"
)

// hugeCount is a count the frames below carry with no elements after it; it
// passed every ad-hoc bound the decoders had before Decoder.Count.
const hugeCount = 1 << 20

// withCount returns body with its last four bytes, an element count, set to n.
func withCount(body []byte, n uint32) []byte {
	out := append([]byte(nil), body...)
	binary.BigEndian.PutUint32(out[len(out)-4:], n)
	return out
}

// countOnly is a frame holding just a count.
func countOnly(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

// TestWireCountsBoundAllocations: a decoder that sizes a slice from a count it
// read must not allocate for elements the frame does not hold. Each frame below
// is a few bytes long and claims a million elements; each decoder must fail on
// it having allocated no more than a few KiB.
func TestWireCountsBoundAllocations(t *testing.T) {
	encoded := func(encode func(*orb.Encoder)) []byte {
		var e orb.Encoder
		encode(&e)
		return e.Bytes()
	}
	// An application spec's topology count is followed by three fields.
	spec := encoded(protocol.ApplicationSpec{Name: "a"}.Encode)
	spec = append(spec[:len(spec)-(1+8+1)], 1)
	spec = binary.BigEndian.AppendUint32(spec, hugeCount)

	decoders := map[string]func() error{
		"protocol.DecodeNodeStatus": func() error {
			_, err := protocol.DecodeNodeStatus(orb.NewDecoder(withCount(encoded(protocol.NodeStatus{}.Encode), hugeCount)))
			return err
		},
		"protocol.DecodeUpdate": func() error {
			body := encoded(func(e *orb.Encoder) { protocol.EncodeUpdate(e, protocol.NodeStatus{}, nil) })
			_, _, _, err := protocol.DecodeUpdate(orb.NewDecoder(withCount(body, hugeCount)), nil, new([protocol.MaxWindows]protocol.AvailWindow))
			return err
		},
		"protocol.DecodeApplicationSpec": func() error {
			_, err := protocol.DecodeApplicationSpec(orb.NewDecoder(spec))
			return err
		},
		"protocol.DecodeAppStatus": func() error {
			_, err := protocol.DecodeAppStatus(orb.NewDecoder(withCount(encoded(protocol.AppStatus{}.Encode), hugeCount)))
			return err
		},
		"protocol.DecodeReconcileRequest": func() error {
			_, err := protocol.DecodeReconcileRequest(orb.NewDecoder(withCount(encoded(protocol.ReconcileRequest{}.Encode), hugeCount)))
			return err
		},
		"protocol.DecodeReserveReply": func() error {
			_, err := protocol.DecodeReserveReply(orb.NewDecoder(withCount(encoded(protocol.ReserveReply{}.Encode), protocol.MaxHolds-1)))
			return err
		},
		"protocol.DecodeExecuteRequest": func() error {
			_, err := protocol.DecodeExecuteRequest(orb.NewDecoder(withCount(encoded(protocol.ExecuteRequest{}.Encode), protocol.MaxHolds)))
			return err
		},
		"orb.Decoder.Strings": func() error {
			d := orb.NewDecoder(countOnly(hugeCount))
			d.Strings()
			return d.Err()
		},
		"checkpoint.DecodeSnapshot": func() error {
			_, err := checkpoint.DecodeSnapshot(orb.NewDecoder(withCount(encoded(checkpoint.Snapshot{}.Encode), hugeCount)))
			return err
		},
	}
	for name, decode := range decoders {
		var err error
		got := allocbudget.Bytes(func() { err = decode() })
		if err == nil {
			t.Errorf("%s: a frame claiming %d elements it does not hold decoded", name, hugeCount)
		}
		if got > allocbudget.FewKiB {
			t.Errorf("%s: allocated %d KiB on a frame claiming elements it does not hold", name, got>>10)
		}
	}
}
