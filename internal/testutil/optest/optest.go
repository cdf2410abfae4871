// Package optest checks an orb.Op declaration against itself: what each codec
// writes its twin reads back whole, a decoded reply keeps nothing of the
// buffer it came from, and a truncated body fails on either side with the
// CodeMarshal error Serve and Invoke promise.
package optest

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"integrade/internal/orb"
)

// Check runs op's checks as a subtest named after it and returns the name.
// req and rep should set every field, so a field a codec drops or misorders
// shows as a difference.
func Check[Req, Rep any](t *testing.T, op *orb.Op[Req, Rep], req Req, rep Rep) string {
	t.Run(op.Name, func(t *testing.T) {
		if body := roundTrip(t, "request", op.EncodeReq, op.DecodeReq, req, false); len(body) > 0 {
			mux := orb.NewOpMux()
			orb.Serve(mux, op, func(Req) (Rep, error) { return rep, nil })
			_, err := mux.Dispatch(op.Name, orb.NewDecoder(body[:len(body)-1]))
			wantMarshal(t, err, op.Name+": ")
		}
		if body := roundTrip(t, "reply", op.EncodeRep, op.DecodeRep, rep, true); len(body) > 0 {
			_, err := op.Invoke(replyWith(body[:len(body)-1]), orb.ObjectRef{}, req)
			wantMarshal(t, err, op.Name+" reply: ")
		}
	})
	return op.Name
}

// roundTrip encodes v, decodes it back and returns the encoding, or nil when
// the body is empty (no codec). With reused set, the decoded value must not
// change when the bytes it was decoded from are written over, as they are
// once Op.Invoke has put a reply's buffer back in the pool.
func roundTrip[T any](t *testing.T, what string, enc func(T, *orb.Encoder), dec func(*orb.Decoder) (T, error), v T, reused bool) []byte {
	if enc == nil {
		return nil
	}
	var e orb.Encoder
	enc(v, &e)
	body := bytes.Clone(e.Bytes())
	d := orb.NewDecoder(e.Bytes())
	got, err := dec(d)
	if err != nil || d.Remaining() != 0 || !reflect.DeepEqual(got, v) {
		t.Errorf("%s decodes to %+v (err %v, %d bytes left), want %+v", what, got, err, d.Remaining(), v)
		return body
	}
	if reused {
		for i := range e.Bytes() {
			e.Bytes()[i] ^= 0xA5
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%s decodes to a view of its buffer: %+v once the buffer is reused, want %+v", what, got, v)
		}
	}
	return body
}

func wantMarshal(t *testing.T, err error, prefix string) {
	var re *orb.RemoteError
	if !errors.As(err, &re) || re.Code != orb.CodeMarshal || !strings.HasPrefix(re.Msg, prefix) {
		t.Errorf("truncated body: err %v, want CodeMarshal %q…", err, prefix)
	}
}

// replyWith is an Invoker that answers every call with a copy of its bytes,
// the caller's to keep or recycle (orb.Invoker).
type replyWith []byte

func (r replyWith) Invoke(orb.ObjectRef, string, []byte) ([]byte, error) {
	return bytes.Clone(r), nil
}
