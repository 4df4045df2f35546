// Package sqlparse parses the SQL the engine's one client emits — the
// grounding compiler of Appendix B.1 of the paper, incremental evidence
// updates and the clause store:
//
//	SELECT col [AS alias], … FROM table [[AS] alias], …
//	    [WHERE operand op operand AND …] [ORDER BY col, …]
//	UPDATE table SET col = number [WHERE …]
//	DELETE FROM table [WHERE …]
//
// An operand is a column reference (alias.col or col) or an integer
// literal, and op is = or <>. Identifiers are ASCII. Anything else fails
// with an "sql:" error.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"tuffy/internal/db/exec"
	"tuffy/internal/db/plan"
	"tuffy/internal/db/tuple"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tPunct // punctuation or operator, text holds it
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isLetter(c):
			start := i
			for i < len(src) && (isLetter(src[i]) || isDigit(src[i])) {
				i++
			}
			toks = append(toks, token{tIdent, src[start:i], start})
		case isDigit(c) || (c == '-' && i+1 < len(src) && isDigit(src[i+1])):
			start := i
			i++
			for i < len(src) && isDigit(src[i]) {
				i++
			}
			toks = append(toks, token{tNumber, src[start:i], start})
		case c == '<' && i+1 < len(src) && src[i+1] == '>':
			toks = append(toks, token{tPunct, "<>", i})
			i += 2
		case c == ',' || c == '.' || c == '=':
			toks = append(toks, token{tPunct, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: tEOF, pos: len(src)})
	return toks, nil
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Parse parses one SQL statement.
func Parse(src string) (plan.Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, fmt.Errorf("sql: trailing tokens at %d: %q", p.cur().pos, p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) isKeyword(kw string) bool {
	return p.cur().kind == tIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s at %d, got %q", kw, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	if p.acceptPunct(s) {
		return nil
	}
	return fmt.Errorf("sql: expected %q at %d, got %q", s, p.cur().pos, p.cur().text)
}

func (p *parser) acceptPunct(s string) bool {
	if p.cur().kind == tPunct && p.cur().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectIdent(what string) (string, error) {
	if p.cur().kind != tIdent {
		return "", fmt.Errorf("sql: expected %s at %d, got %q", what, p.cur().pos, p.cur().text)
	}
	return p.next().text, nil
}

func (p *parser) parseStatement() (plan.Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	default:
		return nil, fmt.Errorf("sql: expected SELECT, UPDATE or DELETE, got %q", p.cur().text)
	}
}

func (p *parser) parseUpdate() (plan.Statement, error) {
	p.next() // UPDATE
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	col, err := p.expectIdent("column name")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	val, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	where, err := p.parseOptionalWhere()
	if err != nil {
		return nil, err
	}
	return &plan.UpdateStmt{Table: name, Col: col, Val: val, Where: where}, nil
}

func (p *parser) parseDelete() (plan.Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	where, err := p.parseOptionalWhere()
	if err != nil {
		return nil, err
	}
	return &plan.DeleteStmt{Table: name, Where: where}, nil
}

func (p *parser) parseSelect() (plan.Statement, error) {
	p.next() // SELECT
	stmt := &plan.SelectStmt{}
	for {
		col, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		item := plan.ProjItem{Col: col}
		if item.Alias, err = p.parseAlias("FROM"); err != nil {
			return nil, err
		}
		stmt.Proj = append(stmt.Proj, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		tn, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		fi := plan.FromItem{Table: tn}
		if fi.Alias, err = p.parseAlias("WHERE", "ORDER"); err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, fi)
		if !p.acceptPunct(",") {
			break
		}
	}
	where, err := p.parseOptionalWhere()
	if err != nil {
		return nil, err
	}
	stmt.Where = where
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			op, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			stmt.OrderBy = append(stmt.OrderBy, op)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	return stmt, nil
}

// parseAlias reads an optional "AS name" or bare name; a bare identifier
// that is one of the clause keywords that may follow is not an alias.
func (p *parser) parseAlias(follow ...string) (string, error) {
	if p.acceptKeyword("AS") {
		return p.expectIdent("alias")
	}
	if p.cur().kind != tIdent {
		return "", nil
	}
	for _, kw := range follow {
		if p.isKeyword(kw) {
			return "", nil
		}
	}
	return p.next().text, nil
}

func (p *parser) parseColumnRef() (plan.Operand, error) {
	name, err := p.expectIdent("column")
	if err != nil {
		return plan.Operand{}, err
	}
	if p.acceptPunct(".") {
		col, err := p.expectIdent("column")
		if err != nil {
			return plan.Operand{}, err
		}
		return plan.ColOp(name, col), nil
	}
	return plan.ColOp("", name), nil
}

func (p *parser) parseOperand() (plan.Operand, error) {
	if p.cur().kind == tNumber {
		v, err := p.parseNumber()
		return plan.ValOp(v), err
	}
	return p.parseColumnRef()
}

func (p *parser) parseNumber() (tuple.Value, error) {
	t := p.next()
	if t.kind != tNumber {
		return tuple.Value{}, fmt.Errorf("sql: expected number at %d, got %q", t.pos, t.text)
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return tuple.Value{}, fmt.Errorf("sql: bad number %q", t.text)
	}
	return tuple.I64(n), nil
}

func (p *parser) parseOptionalWhere() ([]plan.Cond, error) {
	if !p.acceptKeyword("WHERE") {
		return nil, nil
	}
	var conds []plan.Cond
	for {
		l, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		var op exec.CmpOp
		switch {
		case p.acceptPunct("="):
			op = exec.CmpEq
		case p.acceptPunct("<>"):
			op = exec.CmpNe
		default:
			return nil, fmt.Errorf("sql: expected = or <> at %d, got %q", p.cur().pos, p.cur().text)
		}
		r, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		conds = append(conds, plan.Cond{Op: op, L: l, R: r})
		if !p.acceptKeyword("AND") {
			break
		}
	}
	return conds, nil
}
