package constraint

import "fmt"

// node is an AST node. Evaluation dispatches on the concrete type.
type node interface {
	eval(ctx Context) (Value, error)
}

type (
	literalNode struct{ v Value }
	identNode   struct{ field Field }
	existNode   struct{ field Field }
	unaryNode   struct {
		op    op // opNeg or opNot
		child node
	}
	binaryNode struct {
		op          op
		left, right node
	}
	// logicNode is a chain "a and b and c" (or the same with or), evaluated
	// left to right with short circuit.
	logicNode struct {
		op    op // opAnd or opOr
		terms []node
	}
	// propCmpNode is "property <cmp> literal", the shape almost every clause
	// of a trader constraint has: newBinary folds the three nodes into one,
	// which reads the property and compares without evaluating children.
	propCmpNode struct {
		op    op // opEq ... opGe
		field Field
		lit   Value
	}
)

// op is an operator, resolved from its spelling once, by the parser.
type op uint8

const (
	opNeg op = iota
	opNot
	opAnd
	opOr
	opAdd
	opSub
	opMul
	opDiv
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opIn
)

// opText is each operator's canonical spelling, as error messages print it.
var opText = [...]string{"-", "not", "and", "or", "+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "in"}

func (o op) String() string { return opText[o] }

// binaryOps resolves the spelling of the binary operators of the cmp, sum
// and prod grammar levels.
var binaryOps = map[string]op{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
	"==": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe, "in": opIn,
}

// newBinary builds the node for "left <text> right".
func newBinary(text string, left, right node) node {
	o := binaryOps[text]
	if id, ok := left.(*identNode); ok && o >= opEq && o <= opGe {
		if lit, ok := right.(*literalNode); ok {
			return &propCmpNode{op: o, field: Field{name: id.field.name}, lit: lit.v}
		}
	}
	return &binaryNode{op: o, left: left, right: right}
}

// Expr is a compiled constraint expression ready for repeated evaluation.
type Expr struct {
	src  string
	root node
}

// Compile parses src into an Expr.
//
//lint:coldpath full compile runs only on a cache miss
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input")
	}
	return &Expr{src: src, root: root}, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Expr: p.src, Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptOp(texts ...string) (string, bool) {
	t := p.peek()
	if t.kind != tokOp && t.kind != tokKeyword {
		return "", false
	}
	for _, want := range texts {
		if t.text == want {
			p.next()
			return want, true
		}
	}
	return "", false
}

func (p *parser) parseOr() (node, error) {
	return p.parseChain(opOr, p.parseAnd, "or", "||")
}

func (p *parser) parseAnd() (node, error) {
	return p.parseChain(opAnd, p.parseNot, "and", "&&")
}

// parseChain parses "term { spelling term }" for one of the two connectives.
func (p *parser) parseChain(o op, term func() (node, error), spellings ...string) (node, error) {
	first, err := term()
	if err != nil {
		return nil, err
	}
	terms := []node{first}
	for {
		if _, ok := p.acceptOp(spellings...); !ok {
			break
		}
		next, err := term()
		if err != nil {
			return nil, err
		}
		terms = append(terms, next)
	}
	if len(terms) == 1 {
		return first, nil
	}
	return &logicNode{op: o, terms: terms}, nil
}

func (p *parser) parseNot() (node, error) {
	if _, ok := p.acceptOp("not", "!"); ok {
		child, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unaryNode{op: opNot, child: child}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (node, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	text, ok := p.acceptOp("==", "!=", "<", "<=", ">", ">=", "in")
	if !ok {
		return left, nil
	}
	right, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	return newBinary(text, left, right), nil
}

func (p *parser) parseSum() (node, error) {
	left, err := p.parseProd()
	if err != nil {
		return nil, err
	}
	for {
		text, ok := p.acceptOp("+", "-")
		if !ok {
			return left, nil
		}
		right, err := p.parseProd()
		if err != nil {
			return nil, err
		}
		left = newBinary(text, left, right)
	}
}

func (p *parser) parseProd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		text, ok := p.acceptOp("*", "/")
		if !ok {
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = newBinary(text, left, right)
	}
}

func (p *parser) parseUnary() (node, error) {
	if _, ok := p.acceptOp("-"); ok {
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryNode{op: opNeg, child: child}, nil
	}
	if _, ok := p.acceptOp("exist"); ok {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, p.errorf("exist requires a property name")
		}
		p.next()
		return &existNode{field: Field{name: t.text}}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return &literalNode{Number(t.num)}, nil
	case tokString:
		p.next()
		return &literalNode{String(t.text)}, nil
	case tokIdent:
		p.next()
		return &identNode{field: Field{name: t.text}}, nil
	case tokKeyword:
		switch t.text {
		case "true":
			p.next()
			return &literalNode{Bool(true)}, nil
		case "false":
			p.next()
			return &literalNode{Bool(false)}, nil
		}
		return nil, p.errorf("unexpected keyword %q", t.text)
	case tokOp:
		if t.text == "(" {
			p.next()
			inner, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if _, ok := p.acceptOp(")"); !ok {
				return nil, p.errorf("missing closing parenthesis")
			}
			return inner, nil
		}
	}
	return nil, p.errorf("unexpected token %q", t.text)
}
