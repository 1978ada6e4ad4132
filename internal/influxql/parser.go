package influxql

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"time"
)

// Parse compiles one SELECT statement into a Query.
func Parse(input string) (*Query, error) {
	toks, err := lexAll(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, errSyntax(t.pos, "unexpected trailing input %q", t.text)
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// acceptKeyword consumes the next token if it is the given
// case-insensitive keyword.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return errSyntax(t.pos, "expected %s, found %q", kw, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return token{}, errSyntax(t.pos, "expected %s, found %q", what, t.text)
	}
	return p.advance(), nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	field, err := p.parseField()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	source, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	q := &Query{Field: field, Source: source}
	if p.acceptKeyword("WHERE") {
		conds, err := p.parseConditions()
		if err != nil {
			return nil, err
		}
		q.Where = conds
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		tags, err := p.parseTagList()
		if err != nil {
			return nil, err
		}
		q.GroupBy = tags
	}
	return q, nil
}

func (p *parser) parseField() (Field, error) {
	fn, err := p.expect(tokIdent, "aggregation function")
	if err != nil {
		return Field{}, err
	}
	agg, ok := validAgg(fn.text)
	if !ok {
		return Field{}, errSyntax(fn.pos, "unknown aggregation %q", fn.text)
	}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return Field{}, err
	}
	arg, err := p.expect(tokIdent, "field name")
	if err != nil {
		return Field{}, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return Field{}, err
	}
	f := Field{Func: agg, Arg: arg.text}
	if p.acceptKeyword("AS") {
		alias, err := p.expect(tokIdent, "alias")
		if err != nil {
			return Field{}, err
		}
		f.Alias = alias.text
	}
	return f, nil
}

func (p *parser) parseSource() (Source, error) {
	t := p.peek()
	switch t.kind {
	case tokString:
		p.advance()
		return Source{Measurement: t.text}, nil
	case tokIdent:
		p.advance()
		return Source{Measurement: t.text}, nil
	case tokLParen:
		p.advance()
		sub, err := p.parseQuery()
		if err != nil {
			return Source{}, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return Source{}, err
		}
		return Source{Sub: sub}, nil
	default:
		return Source{}, errSyntax(t.pos, "expected measurement or subquery, found %q", t.text)
	}
}

func (p *parser) parseConditions() ([]Condition, error) {
	var out []Condition
	for {
		c, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if !p.acceptKeyword("AND") {
			return out, nil
		}
	}
}

func (p *parser) parseCondition() (Condition, error) {
	subj, err := p.expect(tokIdent, "condition subject")
	if err != nil {
		return Condition{}, err
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return Condition{}, err
	}
	op := CompareOp(opTok.text)

	if strings.EqualFold(subj.text, "time") {
		return p.parseTimeRHS(op)
	}

	neg := false
	if p.peek().kind == tokMinus {
		p.advance()
		neg = true
	}
	rhs := p.peek()
	switch rhs.kind {
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(rhs.text, 64)
		if err != nil {
			return Condition{}, errSyntax(rhs.pos, "bad number %q", rhs.text)
		}
		if neg {
			v = -v
		}
		return Condition{Subject: subj.text, Op: op, Number: v}, nil
	case tokString:
		p.advance()
		if op != OpEq && op != OpNeq {
			return Condition{}, errSyntax(rhs.pos, "tag comparison supports only = and <>")
		}
		return Condition{Subject: subj.text, Op: op, Str: rhs.text, IsTag: true}, nil
	default:
		return Condition{}, errSyntax(rhs.pos, "expected number or string, found %q", rhs.text)
	}
}

// parseTimeRHS parses: now() [- duration]
func (p *parser) parseTimeRHS(op CompareOp) (Condition, error) {
	if err := p.expectKeyword("now"); err != nil {
		return Condition{}, err
	}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return Condition{}, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return Condition{}, err
	}
	c := Condition{Subject: "time", Op: op, IsTime: true}
	if p.peek().kind == tokMinus {
		p.advance()
		durTok, err := p.expect(tokNumber, "duration")
		if err != nil {
			return Condition{}, err
		}
		d, err := parseInfluxDuration(durTok.text)
		if err != nil {
			return Condition{}, errSyntax(durTok.pos, "bad duration %q: %v", durTok.text, err)
		}
		c.Offset = d
	}
	return c, nil
}

// parseInfluxDuration understands InfluxQL duration literals (25s, 5m,
// 1h, 7d); bare numbers are rejected because InfluxQL requires a unit.
func parseInfluxDuration(s string) (time.Duration, error) {
	if strings.HasSuffix(s, "d") {
		days, err := strconv.ParseFloat(strings.TrimSuffix(s, "d"), 64)
		if err != nil {
			return 0, err
		}
		// float64(math.MaxInt64) is 2^63: anything from there on would
		// wrap to a negative offset.
		if d := days * 24 * float64(time.Hour); d < math.MaxInt64 {
			return time.Duration(d), nil
		}
		return 0, errors.New("out of range")
	}
	return time.ParseDuration(s)
}

func (p *parser) parseTagList() ([]string, error) {
	var out []string
	for {
		t, err := p.expect(tokIdent, "tag key")
		if err != nil {
			return nil, err
		}
		out = append(out, t.text)
		if p.peek().kind != tokComma {
			return out, nil
		}
		p.advance()
	}
}
