// Fixture for the wiredrift analyzer: Invoke call sites paired with
// OpMux.Handle registrations for the same operation, with seeded count,
// order and type mismatches in both the request and the reply direction,
// symmetric pairs (including shared Marshal/Unmarshal helpers, the
// bool-guarded optional idiom and length-prefixed string lists) that must
// stay silent, intentionally opaque shapes the comparison must truncate on,
// and a deliberate drift carrying the //lint:allow escape hatch.
package wiredrift

import "integrade/internal/orb"

// Wire operation names.
const (
	opTyped = "wd.typed"
	opCount = "wd.count"
	opOrder = "wd.order"
	opOpt   = "wd.opt"
	opReply = "wd.reply"
	opRows  = "wd.rows"
	opOK    = "wd.ok"
	opOptOK = "wd.optok"
	opTags  = "wd.tags"
	opRaw   = "wd.raw"
	opMuted = "wd.muted"
	opPool  = "wd.pool"
	opPoolK = "wd.poolok"
)

// Client issues one call per operation.
type Client struct {
	inv orb.Invoker
	ref orb.ObjectRef
}

// Servants registers every operation's handler on one mux.
func Servants() orb.Servant {
	return orb.NewOpMux().
		Handle(opTyped, typedServant).
		Handle(opCount, countServant).
		Handle(opOrder, orderServant).
		Handle(opOpt, optServant).
		Handle(opReply, replyServant).
		Handle(opRows, rowsServant).
		Handle(opOK, okServant).
		Handle(opOptOK, optOKServant).
		Handle(opTags, tagsServant).
		Handle(opRaw, rawServant).
		Handle(opMuted, mutedServant).
		Handle(opPool, poolServant).
		Handle(opPoolK, poolOKServant)
}

// --- seeded drift: type mismatch in the request ---

// Typed encodes the count as u32; the handler reads it as i64.
func (c *Client) Typed(name string, n uint32) error {
	var e orb.Encoder
	e.PutString(name)
	e.PutU32(n)
	_, err := c.inv.Invoke(c.ref, opTyped, e.Bytes()) // want `wire drift on "wd\.typed" request: client encodes \[string u32\], handler wiredrift\.typedServant decodes \[string i64\]: item 2: client writes u32 \(wiredrift\.go:\d+\), handler reads i64 \(wiredrift\.go:\d+\)`
	return err
}

func typedServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	_ = req.String()
	_ = req.I64()
	return &orb.Encoder{}, nil
}

// --- seeded drift: count mismatch in the request ---

// Count writes one field; the handler reads three.
func (c *Client) Count(n uint32) error {
	var e orb.Encoder
	e.PutU32(n)
	_, err := c.inv.Invoke(c.ref, opCount, e.Bytes()) // want `wire drift on "wd\.count" request: client encodes \[u32\], handler wiredrift\.countServant decodes \[u32 u32 u32\]: client writes 1 item\(s\), handler reads 3`
	return err
}

func countServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	lo, hi, stride := req.U32(), req.U32(), req.U32()
	_, _, _ = lo, hi, stride
	return &orb.Encoder{}, nil
}

// --- seeded drift: field order swapped ---

// Reorder writes name then count; the handler reads count first.
func (c *Client) Reorder(name string, n uint32) error {
	var e orb.Encoder
	e.PutString(name)
	e.PutU32(n)
	_, err := c.inv.Invoke(c.ref, opOrder, e.Bytes()) // want `wire drift on "wd\.order" request: client encodes \[string u32\], handler wiredrift\.orderServant decodes \[u32 string\]: item 1: client writes string \(wiredrift\.go:\d+\), handler reads u32 \(wiredrift\.go:\d+\)`
	return err
}

func orderServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	n := req.U32()
	name := req.String()
	_, _ = n, name
	return &orb.Encoder{}, nil
}

// --- seeded drift: optional field read unconditionally ---

// Opt writes the load behind a presence flag; the handler always reads it.
func (c *Client) Opt(load *float64) error {
	var e orb.Encoder
	if load != nil {
		e.PutBool(true)
		e.PutF64(*load)
	} else {
		e.PutBool(false)
	}
	_, err := c.inv.Invoke(c.ref, opOpt, e.Bytes()) // want `wire drift on "wd\.opt" request: client encodes \[bool opt\(f64\)\], handler wiredrift\.optServant decodes \[bool f64\]: item 2: client writes opt\(f64\) \(wiredrift\.go:\d+\), handler reads f64 \(wiredrift\.go:\d+\)`
	return err
}

func optServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	_ = req.Bool()
	_ = req.F64()
	return &orb.Encoder{}, nil
}

// --- seeded drift: reply direction ---

// Fetch decodes the reply as u32; the handler encodes u64.
func (c *Client) Fetch() (uint32, error) {
	reply, err := c.inv.Invoke(c.ref, opReply, nil) // want `wire drift on "wd\.reply" reply: handler wiredrift\.replyServant encodes \[u64\], client decodes \[u32\]: item 1: handler writes u64 \(wiredrift\.go:\d+\), client reads u32 \(wiredrift\.go:\d+\)`
	if err != nil {
		return 0, err
	}
	d := orb.NewDecoder(reply)
	return d.U32(), nil
}

func replyServant(_ string, _ *orb.Decoder) (*orb.Encoder, error) {
	var e orb.Encoder
	e.PutU64(42)
	return &e, nil
}

// --- seeded drift: inside a repeated group, through helpers ---

type row struct {
	name string
	n    uint32
}

// marshalRows writes the canonical length-prefixed row list.
func marshalRows(e *orb.Encoder, rows []row) {
	e.PutU32(uint32(len(rows)))
	for _, r := range rows {
		e.PutString(r.name)
		e.PutU32(r.n)
	}
}

// Rows marshals through the helper; the handler's loop reads the second
// column with the wrong width.
func (c *Client) Rows(rows []row) error {
	var e orb.Encoder
	marshalRows(&e, rows)
	_, err := c.inv.Invoke(c.ref, opRows, e.Bytes()) // want `wire drift on "wd\.rows" request: client encodes \[u32 repeat\(string u32\)\], handler wiredrift\.rowsServant decodes \[u32 repeat\(string i64\)\]: item 2: repeated group: item 2: client writes u32 \(wiredrift\.go:\d+\), handler reads i64 \(wiredrift\.go:\d+\)`
	return err
}

func rowsServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	n := req.U32()
	for i := uint32(0); i < n; i++ {
		name := req.String()
		v := req.I64()
		_, _ = name, v
	}
	return &orb.Encoder{}, nil
}

// --- seeded drift: a pooled encoder, handed back by defer ---

// Pooled encodes into a pooled encoder it puts back when it returns; the
// handler reads the count with the wrong width. The deferred PutEncoder is
// no write, so the drift behind it is still seen.
func (c *Client) Pooled(name string, n uint32) error {
	e := orb.GetEncoder()
	defer orb.PutEncoder(e)
	e.PutString(name)
	e.PutU32(n)
	_, err := c.inv.Invoke(c.ref, opPool, e.Bytes()) // want `wire drift on "wd\.pool" request: client encodes \[string u32\], handler wiredrift\.poolServant decodes \[string u64\]: item 2: client writes u32 \(wiredrift\.go:\d+\), handler reads u64 \(wiredrift\.go:\d+\)`
	return err
}

func poolServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	_ = req.String()
	_ = req.U64()
	return &orb.Encoder{}, nil
}

// --- a pooled encoder through a helper, put back after the Invoke: silent ---

// PooledReport encodes a status into a pooled encoder and puts it back once
// Invoke returns, as the protocol stubs do.
func (c *Client) PooledReport(s status) error {
	e := orb.GetEncoder()
	s.encode(e)
	_, err := c.inv.Invoke(c.ref, opPoolK, e.Bytes())
	orb.PutEncoder(e)
	return err
}

func poolOKServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	_ = decodeStatus(req)
	return &orb.Encoder{}, nil
}

// --- symmetric request and reply through shared helpers: silent ---

type status struct {
	id   string
	load float64
}

func (s status) encode(e *orb.Encoder) {
	e.PutString(s.id)
	e.PutF64(s.load)
}

func decodeStatus(d *orb.Decoder) status {
	return status{id: d.String(), load: d.F64()}
}

// Report round-trips a status both ways through the shared helpers.
func (c *Client) Report(s status) (status, error) {
	var e orb.Encoder
	s.encode(&e)
	reply, err := c.inv.Invoke(c.ref, opOK, e.Bytes())
	if err != nil {
		return status{}, err
	}
	return decodeStatus(orb.NewDecoder(reply)), nil
}

func okServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	s := decodeStatus(req)
	var e orb.Encoder
	s.encode(&e)
	return &e, nil
}

// --- optional idiom matched on both sides: silent ---

// Probe writes the load behind a presence flag; the handler reads it behind
// the same flag.
func (c *Client) Probe(load *float64) error {
	var e orb.Encoder
	if load != nil {
		e.PutBool(true)
		e.PutF64(*load)
	} else {
		e.PutBool(false)
	}
	_, err := c.inv.Invoke(c.ref, opOptOK, e.Bytes())
	return err
}

func optOKServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	if req.Bool() {
		_ = req.F64()
	}
	return &orb.Encoder{}, nil
}

// --- length-prefixed string list on both sides: silent ---

// Tags sends a string list the handler reads with the matching helper.
func (c *Client) Tags(tags []string) error {
	var e orb.Encoder
	e.PutStrings(tags)
	_, err := c.inv.Invoke(c.ref, opTags, e.Bytes())
	return err
}

func tagsServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	_ = req.Strings()
	return &orb.Encoder{}, nil
}

// --- raw payload passthrough: the client side is opaque, so silent ---

// Raw forwards an already-encoded payload; the extractor cannot see its
// schema and must not guess.
func (c *Client) Raw(payload []byte) error {
	_, err := c.inv.Invoke(c.ref, opRaw, payload)
	return err
}

func rawServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	_ = req.Bytes()
	return &orb.Encoder{}, nil
}

// --- deliberate drift, suppressed with a justification ---

// Muted still speaks the legacy u32 form; the handler widened to u64 and
// zero-extends old frames.
func (c *Client) Muted(n uint32) error {
	var e orb.Encoder
	e.PutU32(n)
	//lint:allow wiredrift legacy client: the handler zero-extends the old u32 frame
	_, err := c.inv.Invoke(c.ref, opMuted, e.Bytes())
	return err
}

func mutedServant(_ string, req *orb.Decoder) (*orb.Encoder, error) {
	_ = req.U64()
	return &orb.Encoder{}, nil
}
