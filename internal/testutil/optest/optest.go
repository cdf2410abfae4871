// Package optest checks an orb.Op declaration against itself: what each codec
// writes its twin reads back whole, and a truncated body fails on either side
// with the CodeMarshal error Serve and Invoke promise.
package optest

import (
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
		if body := roundTrip(t, "request", op.EncodeReq, op.DecodeReq, req); len(body) > 0 {
			mux := orb.NewOpMux()
			orb.Serve(mux, op, func(Req) (Rep, error) { return rep, nil })
			_, err := mux.Dispatch(op.Name, orb.NewDecoder(body[:len(body)-1]))
			wantMarshal(t, err, op.Name+": ")
		}
		if body := roundTrip(t, "reply", op.EncodeRep, op.DecodeRep, rep); len(body) > 0 {
			_, err := op.Invoke(replyWith(body[:len(body)-1]), orb.ObjectRef{}, req)
			wantMarshal(t, err, op.Name+" reply: ")
		}
	})
	return op.Name
}

// roundTrip encodes v, decodes it back and returns the encoding, or nil when
// the body is empty (no codec).
func roundTrip[T any](t *testing.T, what string, enc func(T, *orb.Encoder), dec func(*orb.Decoder) (T, error), v T) []byte {
	if enc == nil {
		return nil
	}
	var e orb.Encoder
	enc(v, &e)
	d := orb.NewDecoder(e.Bytes())
	got, err := dec(d)
	if err != nil || d.Remaining() != 0 || !reflect.DeepEqual(got, v) {
		t.Errorf("%s decodes to %+v (err %v, %d bytes left), want %+v", what, got, err, d.Remaining(), v)
	}
	return e.Bytes()
}

func wantMarshal(t *testing.T, err error, prefix string) {
	var re *orb.RemoteError
	if !errors.As(err, &re) || re.Code != orb.CodeMarshal || !strings.HasPrefix(re.Msg, prefix) {
		t.Errorf("truncated body: err %v, want CodeMarshal %q…", err, prefix)
	}
}

// replyWith is an Invoker that answers every call with its bytes.
type replyWith []byte

func (r replyWith) Invoke(orb.ObjectRef, string, []byte) ([]byte, error) { return r, nil }
