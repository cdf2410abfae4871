package orb

// Op declares one remote operation once: its name and the codecs of its
// request and reply. Both halves are built from the declaration — the client
// call with Invoke, the servant with Serve — so a stub and its servant cannot
// disagree on the wire. A nil codec means an empty body. The codecs take the
// value first, so a method expression such as ReserveRequest.Encode fits.
type Op[Req, Rep any] struct {
	Name      string
	EncodeReq func(Req, *Encoder)
	DecodeReq func(*Decoder) (Req, error)
	EncodeRep func(Rep, *Encoder)
	DecodeRep func(*Decoder) (Rep, error)
}

// Invoke calls the operation on the object at ref through inv. The request is
// encoded into a pooled encoder, which goes back to the pool once inv.Invoke
// returns: no transport reads the request after that (Invoker), so the next
// call encodes into the same buffer. The reply is decoded through a pooled
// decoder and its buffer goes back to the pool once DecodeRep returns, so
// DecodeRep must copy whatever it keeps (Decoder.String and Bytes copy,
// RawString does not). A reply that does not decode is a CodeMarshal error
// "<name> reply: …".
func (o *Op[Req, Rep]) Invoke(inv Invoker, ref ObjectRef, req Req) (Rep, error) {
	var (
		e   *Encoder
		arg []byte
		rep Rep
	)
	if o.EncodeReq != nil {
		e = GetEncoder()
		o.EncodeReq(req, e)
		arg = e.Bytes()
	}
	reply, err := inv.Invoke(ref, o.Name, arg)
	PutEncoder(e)
	if err != nil || o.DecodeRep == nil {
		putBuf(reply)
		return rep, err
	}
	d := getDecoder(reply)
	rep, err = o.DecodeRep(d)
	putDecoder(d)
	putBuf(reply)
	if err != nil {
		var zero Rep
		return zero, Errorf(CodeMarshal, "%s reply: %v", o.Name, err)
	}
	return rep, nil
}

// Serve registers fn on mux as the servant of op. A request that does not
// decode is refused with a CodeMarshal error "<name>: …" before fn runs; an
// error fn returns reaches the caller as Dispatch's error (Servant). The
// reply is encoded into a pooled encoder, which the ORB recycles; an op
// without a reply codec answers with an empty body.
func Serve[Req, Rep any](mux *OpMux, op *Op[Req, Rep], fn func(Req) (Rep, error)) {
	ServeRaw(mux, op, func(d *Decoder) (Rep, error) {
		var req Req
		if op.DecodeReq != nil {
			var err error
			if req, err = op.DecodeReq(d); err != nil {
				var zero Rep
				return zero, Errorf(CodeMarshal, "%s: %v", op.Name, err)
			}
		}
		return fn(req)
	})
}

// ServeRaw is Serve for a servant that decodes the request itself, against
// state of its own: fn reads the request from d, under the ownership rules of
// Servant, and reports its own decode failures.
func ServeRaw[Req, Rep any](mux *OpMux, op *Op[Req, Rep], fn func(*Decoder) (Rep, error)) {
	mux.Handle(op.Name, func(_ string, d *Decoder) (*Encoder, error) {
		rep, err := fn(d)
		if err != nil || op.EncodeRep == nil {
			return nil, err
		}
		e := GetEncoder()
		op.EncodeRep(rep, e)
		return e, nil
	})
}
