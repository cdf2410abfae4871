package trading

import (
	"fmt"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

// Wire operation names.
const (
	opExport      = "export"
	opExportKeyed = "exportKeyed"
	opWithdraw    = "withdraw"
	opSelect      = "select"
	opCount       = "count"
)

// Property value tags on the wire.
const (
	tagNumber uint8 = 1
	tagString uint8 = 2
	tagBool   uint8 = 3
)

// propertyMin is the encoded size of the smallest property: an empty name, a
// tag and a boolean.
const propertyMin = 4 + 1 + 1

// offerMin is the encoded size of an offer whose five strings are empty and
// which has no property: the strings' lengths, the expiry and the count.
const offerMin = 5*4 + (8 + 4) + 4

// EncodeProperties writes a property record in sorted name order.
func EncodeProperties(e *orb.Encoder, props *constraint.Record) {
	e.PutU32(uint32(props.Len()))
	for k, v := range props.All() {
		e.PutString(k)
		if n, ok := v.AsNumber(); ok {
			e.PutU8(tagNumber)
			e.PutF64(n)
		} else if s, ok := v.AsString(); ok {
			e.PutU8(tagString)
			e.PutString(s)
		} else if b, ok := v.AsBool(); ok {
			e.PutU8(tagBool)
			e.PutBool(b)
		} else {
			// Unset Value encodes as boolean false.
			e.PutU8(tagBool)
			e.PutBool(false)
		}
	}
}

// DecodeProperties reads a property record written by EncodeProperties. Of a
// repeated name the last value wins.
func DecodeProperties(d *orb.Decoder) (*constraint.Record, error) {
	n := d.Count(propertyMin)
	if err := d.Err(); err != nil {
		return nil, err
	}
	props := make(constraint.Properties, n)
	for i := 0; i < n; i++ {
		k := d.String()
		tag := d.U8()
		switch tag {
		case tagNumber:
			props[k] = constraint.Number(d.F64())
		case tagString:
			props[k] = constraint.String(d.String())
		case tagBool:
			props[k] = constraint.Bool(d.Bool())
		default:
			if d.Err() == nil {
				return nil, fmt.Errorf("trading: unknown property tag %d", tag)
			}
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	return props.Record(), nil
}

func encodeOffer(e *orb.Encoder, o Offer) {
	e.PutString(o.ID)
	e.PutString(o.ServiceType)
	e.PutString(o.Ref.Endpoint.Net)
	e.PutString(o.Ref.Endpoint.Addr)
	e.PutString(o.Ref.Key)
	e.PutTime(o.Expires)
	EncodeProperties(e, o.Properties)
}

func decodeOffer(d *orb.Decoder) (Offer, error) {
	o := Offer{
		ID:          d.String(),
		ServiceType: d.String(),
		Ref: orb.ObjectRef{
			Endpoint: orb.Endpoint{Net: d.String(), Addr: d.String()},
			Key:      d.String(),
		},
		Expires: d.Time(),
	}
	props, err := DecodeProperties(d)
	if err != nil {
		return Offer{}, err
	}
	o.Properties = props
	return o, d.Err()
}

// Servant exposes the trader as an ORB servant.
func Servant(s *Service) orb.Servant {
	export := func(keyed bool) orb.ServantFunc {
		return func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			o, err := decodeOffer(req)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "export: %v", err)
			}
			var id string
			if keyed {
				id, err = s.ExportKeyed(o)
			} else {
				id, err = s.Export(o)
			}
			if err != nil {
				return nil, err
			}
			var e orb.Encoder
			e.PutString(id)
			return &e, nil
		}
	}
	return orb.NewOpMux().
		Handle(opExport, export(false)).
		Handle(opExportKeyed, export(true)).
		Handle(opWithdraw, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			id := req.String()
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "withdraw: %v", err)
			}
			if err := s.Withdraw(id); err != nil {
				return nil, err
			}
			return &orb.Encoder{}, nil
		}).
		Handle(opSelect, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			q := Query{
				ServiceType: req.String(),
				Constraint:  req.String(),
				Preference:  req.String(),
				Limit:       req.Int(),
			}
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "select: %v", err)
			}
			offers, err := s.Select(q)
			if err != nil {
				return nil, err
			}
			var e orb.Encoder
			e.PutU32(uint32(len(offers)))
			for _, o := range offers {
				encodeOffer(&e, o)
			}
			return &e, nil
		}).
		Handle(opCount, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			st := req.String()
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "count: %v", err)
			}
			var e orb.Encoder
			e.PutInt(s.Count(st))
			return &e, nil
		})
}

// Client is a typed stub for a remote trading service.
type Client struct {
	inv orb.Invoker
	ref orb.ObjectRef
}

// NewClient returns a stub invoking the trader at ref via inv.
func NewClient(inv orb.Invoker, ref orb.ObjectRef) *Client {
	return &Client{inv: inv, ref: ref}
}

// Export exports an offer remotely and returns its ID.
func (c *Client) Export(o Offer) (string, error) {
	return c.export(opExport, o)
}

// ExportKeyed upserts the (type, ref) offer remotely and returns its ID.
func (c *Client) ExportKeyed(o Offer) (string, error) {
	return c.export(opExportKeyed, o)
}

func (c *Client) export(op string, o Offer) (string, error) {
	var e orb.Encoder
	encodeOffer(&e, o)
	reply, err := c.inv.Invoke(c.ref, op, e.Bytes())
	if err != nil {
		return "", err
	}
	d := orb.NewDecoder(reply)
	id := d.String()
	if err := d.Err(); err != nil {
		return "", orb.Errorf(orb.CodeMarshal, "export reply: %v", err)
	}
	return id, nil
}

// Withdraw removes an offer remotely.
func (c *Client) Withdraw(id string) error {
	var e orb.Encoder
	e.PutString(id)
	_, err := c.inv.Invoke(c.ref, opWithdraw, e.Bytes())
	return err
}

// Select runs a query remotely.
func (c *Client) Select(q Query) ([]Offer, error) {
	var e orb.Encoder
	e.PutString(q.ServiceType)
	e.PutString(q.Constraint)
	e.PutString(q.Preference)
	e.PutInt(q.Limit)
	reply, err := c.inv.Invoke(c.ref, opSelect, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := orb.NewDecoder(reply)
	n := d.Count(offerMin)
	if err := d.Err(); err != nil {
		return nil, orb.Errorf(orb.CodeMarshal, "select reply: %v", err)
	}
	out := make([]Offer, 0, n)
	for i := 0; i < n; i++ {
		o, err := decodeOffer(d)
		if err != nil {
			return nil, orb.Errorf(orb.CodeMarshal, "select reply offer %d: %v", i, err)
		}
		out = append(out, o)
	}
	return out, nil
}

// Count returns the number of live offers of a type remotely.
func (c *Client) Count(serviceType string) (int, error) {
	var e orb.Encoder
	e.PutString(serviceType)
	reply, err := c.inv.Invoke(c.ref, opCount, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := orb.NewDecoder(reply)
	n := d.Int()
	if err := d.Err(); err != nil {
		return 0, orb.Errorf(orb.CodeMarshal, "count reply: %v", err)
	}
	return n, nil
}
