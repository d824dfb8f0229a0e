package sqlpp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"asterix/internal/adm"
)

// Aggregates lists the functions that are SQL++ aggregates: under GROUP BY,
// or in a block that aggregates globally, a call of one folds the group's
// values. The runtime defines each (hyracks.Aggregates, which a test keeps
// in step with this list).
var Aggregates = strings.Fields("count sum min max avg array_agg")

// IsAggregate reports whether fn, lower-cased, names an aggregate.
func IsAggregate(fn string) bool { return slices.Contains(Aggregates, fn) }

// Parser is a recursive-descent SQL++ parser.
type Parser struct {
	lx    *Lexer
	tok   Token
	next  Token
	err   error
	depth int
	// fields holds the fields of the object constructors being parsed.
	fields []ObjectField
}

// maxExprDepth bounds expression-nesting recursion so a hostile
// multi-megabyte query ("(((((...") returns an error instead of
// overflowing the goroutine stack.
const maxExprDepth = 10000

// NewParser creates a parser over src.
func NewParser(src string) (*Parser, error) {
	p := &Parser{lx: NewLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseScript parses a whole ;-separated script.
func ParseScript(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		for p.acceptOp(";") {
		}
		if p.tok.Kind == TokEOF {
			if p.err != nil {
				return nil, p.err
			}
			return stmts, nil
		}
		s, err := p.ParseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if p.tok.Kind != TokEOF && !p.acceptOp(";") {
			return nil, p.errf("expected ';' after statement, got %s", p.tok)
		}
	}
}

// ParseQuery parses a single query expression (for APIs that accept just a
// query).
func ParseQuery(src string) (*QueryStmt, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqlpp: expected a single query, got %d statements", len(stmts))
	}
	q, ok := stmts[0].(*QueryStmt)
	if !ok {
		return nil, fmt.Errorf("sqlpp: statement is not a query")
	}
	return q, nil
}

func (p *Parser) advance() error {
	p.tok = p.next
	// Lexer errors are sticky: accept* callers discard advance's return,
	// so the lookahead is pinned at EOF to guarantee every parsing loop
	// terminates, and errf surfaces the recorded error.
	if p.err != nil {
		p.next = Token{Kind: TokEOF, Line: p.tok.Line}
		return p.err
	}
	t, err := p.lx.Next()
	if err != nil {
		p.err = err
		p.next = Token{Kind: TokEOF, Line: p.tok.Line}
		return err
	}
	p.next = t
	return nil
}

func (p *Parser) errf(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return &SyntaxError{Line: p.tok.Line, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) isKw(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *Parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %s", kw, p.tok)
	}
	return nil
}

func (p *Parser) isOp(op string) bool { return p.op() == op }

// op returns the current token's text if it is an operator, else "".
func (p *Parser) op() string {
	if p.tok.Kind != TokOp {
		return ""
	}
	return p.tok.Text
}

func (p *Parser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.advance()
		return true
	}
	// "}}" is lexed greedily for multiset literals; when a single "}" is
	// needed (nested object constructors ending in "}}"), split the token.
	if op == "}" && p.isOp("}}") {
		p.tok.Text = "}"
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, got %s", op, p.tok)
	}
	return nil
}

// parseIdent accepts a plain or quoted identifier.
func (p *Parser) parseIdent() (string, error) {
	switch p.tok.Kind {
	case TokIdent, TokQuotedIdent:
		name := p.tok.Text
		p.advance()
		return name, nil
	}
	return "", p.errf("expected identifier, got %s", p.tok)
}

// parseName accepts identifiers and (for field names) string literals.
func (p *Parser) parseName() (string, error) {
	if p.tok.Kind == TokString {
		name := p.tok.Text
		p.advance()
		return name, nil
	}
	return p.parseIdent()
}

// parseQualifiedName parses a possibly dotted name (dataverse.dataset).
func (p *Parser) parseQualifiedName() (string, error) {
	first, err := p.parseIdent()
	if err != nil {
		return "", err
	}
	parts := []string{first}
	for p.isOp(".") && (p.next.Kind == TokIdent || p.next.Kind == TokQuotedIdent) {
		p.advance()
		n, err := p.parseIdent()
		if err != nil {
			return "", err
		}
		parts = append(parts, n)
	}
	return strings.Join(parts, "."), nil
}

// Exported low-level hooks used by the AQL front end (package aql), which
// shares this lexer and expression grammar while providing its own FLWOR
// clause structure.

// ParseExpression parses one expression at the current position.
func (p *Parser) ParseExpression() (Expr, error) { return p.parseExpr() }

// ParseIdentifier parses one identifier.
func (p *Parser) ParseIdentifier() (string, error) { return p.parseIdent() }

// AcceptKeyword consumes kw if present.
func (p *Parser) AcceptKeyword(kw string) bool { return p.acceptKw(kw) }

// PeekKeyword reports whether the current token is kw.
func (p *Parser) PeekKeyword(kw string) bool { return p.isKw(kw) }

// ExpectKeyword consumes kw or errors.
func (p *Parser) ExpectKeyword(kw string) error { return p.expectKw(kw) }

// AcceptOperator consumes op if present.
func (p *Parser) AcceptOperator(op string) bool { return p.acceptOp(op) }

// ExpectOperator consumes op or errors.
func (p *Parser) ExpectOperator(op string) error { return p.expectOp(op) }

// AtEOF reports end of input.
func (p *Parser) AtEOF() bool { return p.tok.Kind == TokEOF }

// Errorf builds a positioned syntax error.
func (p *Parser) Errorf(format string, args ...any) error { return p.errf(format, args...) }

// ParseStatement parses one statement.
func (p *Parser) ParseStatement() (Statement, error) {
	switch {
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("DROP"):
		return p.parseDrop()
	case p.isKw("USE"):
		p.advance()
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &UseDataverse{Name: name}, nil
	case p.isKw("INSERT"), p.isKw("UPSERT"):
		return p.parseUpsertInsert()
	case p.isKw("DELETE"):
		return p.parseDelete()
	case p.isKw("LOAD"):
		return p.parseLoad()
	case p.acceptKw("EXPLAIN"):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: &QueryStmt{Body: e}}, nil
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &QueryStmt{Body: e}, nil
	}
}

func (p *Parser) parseIfNotExists() (bool, error) {
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return false, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (p *Parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKw("DATAVERSE"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ine, err := p.parseIfNotExists()
		if err != nil {
			return nil, err
		}
		return &CreateDataverse{Name: name, IfNotExists: ine}, nil

	case p.acceptKw("TYPE"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ine, err := p.parseIfNotExists()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		body, err := p.parseObjectTypeBody()
		if err != nil {
			return nil, err
		}
		return &CreateType{Name: name, Body: *body, IfNotExists: ine}, nil

	case p.acceptKw("EXTERNAL"):
		if err := p.expectKw("DATASET"); err != nil {
			return nil, err
		}
		name, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		typeName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if err := p.expectKw("USING"); err != nil {
			return nil, err
		}
		adapter, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		params, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		return &CreateExternalDataset{Name: name, TypeName: typeName, Adapter: adapter, Params: params}, nil

	case p.acceptKw("DATASET"):
		name, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		ine, err := p.parseIfNotExists()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		typeName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if err := p.expectKw("PRIMARY"); err != nil {
			return nil, err
		}
		if err := p.expectKw("KEY"); err != nil {
			return nil, err
		}
		var pk []string
		for {
			f, err := p.parseName()
			if err != nil {
				return nil, err
			}
			pk = append(pk, f)
			if !p.acceptOp(",") {
				break
			}
		}
		return &CreateDataset{Name: name, TypeName: typeName, PrimaryKey: pk, IfNotExists: ine}, nil

	case p.acceptKw("INDEX"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ine, err := p.parseIfNotExists()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		ds, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var fields []string
		for {
			f, err := p.parseName()
			if err != nil {
				return nil, err
			}
			fields = append(fields, f)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		kind := "BTREE"
		if p.acceptKw("TYPE") {
			k, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			kind = strings.ToUpper(k)
		}
		return &CreateIndex{Name: name, Dataset: ds, Fields: fields, Kind: kind, IfNotExists: ine}, nil
	}
	return nil, p.errf("expected DATAVERSE, TYPE, DATASET, EXTERNAL DATASET or INDEX after CREATE")
}

// parseObjectTypeBody parses [CLOSED|OPEN] { field: type, ... }.
func (p *Parser) parseObjectTypeBody() (*ObjectTypeExpr, error) {
	body := &ObjectTypeExpr{}
	if p.acceptKw("CLOSED") {
		body.Closed = true
	} else {
		p.acceptKw("OPEN")
	}
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	if p.acceptOp("}") {
		return body, nil
	}
	for {
		fname, err := p.parseName()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(":"); err != nil {
			return nil, err
		}
		ft, err := p.parseTypeExpr()
		if err != nil {
			return nil, err
		}
		optional := p.acceptOp("?")
		body.Fields = append(body.Fields, TypeField{Name: fname, Type: ft, Optional: optional})
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp("}"); err != nil {
			return nil, err
		}
		return body, nil
	}
}

func (p *Parser) parseTypeExpr() (TypeExpr, error) {
	switch {
	case p.acceptOp("["):
		inner, err := p.parseTypeExpr()
		if err != nil {
			return TypeExpr{}, err
		}
		if err := p.expectOp("]"); err != nil {
			return TypeExpr{}, err
		}
		return TypeExpr{Array: &inner}, nil
	case p.acceptOp("{{"):
		inner, err := p.parseTypeExpr()
		if err != nil {
			return TypeExpr{}, err
		}
		if err := p.expectOp("}}"); err != nil {
			return TypeExpr{}, err
		}
		return TypeExpr{Multiset: &inner}, nil
	case p.isOp("{"):
		body, err := p.parseObjectTypeBody()
		if err != nil {
			return TypeExpr{}, err
		}
		return TypeExpr{Object: body}, nil
	default:
		name, err := p.parseIdent()
		if err != nil {
			return TypeExpr{}, err
		}
		return TypeExpr{Named: name}, nil
	}
}

// parseParams parses (("k"="v"), ("k"="v"), ...).
func (p *Parser) parseParams() (map[string]string, error) {
	params := map[string]string{}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokString {
			return nil, p.errf("expected parameter name string, got %s", p.tok)
		}
		k := p.tok.Text
		p.advance()
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokString {
			return nil, p.errf("expected parameter value string, got %s", p.tok)
		}
		v := p.tok.Text
		p.advance()
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		params[k] = v
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return params, nil
	}
}

func (p *Parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	var what string
	switch {
	case p.acceptKw("DATASET"):
		what = "DATASET"
	case p.acceptKw("TYPE"):
		what = "TYPE"
	case p.acceptKw("DATAVERSE"):
		what = "DATAVERSE"
	case p.acceptKw("INDEX"):
		what = "INDEX"
	default:
		return nil, p.errf("expected DATASET, TYPE, DATAVERSE or INDEX after DROP")
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	st := &DropStmt{What: what, Name: name}
	if what == "INDEX" {
		// DROP INDEX dataset.index.
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			st.On = name[:i]
			st.Name = name[i+1:]
		} else {
			return nil, p.errf("DROP INDEX requires dataset.index")
		}
	}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	return st, nil
}

func (p *Parser) parseUpsertInsert() (Statement, error) {
	isUpsert := p.isKw("UPSERT")
	p.advance()
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	ds, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	// Parenthesized payload is conventional but optional.
	hadParen := p.acceptOp("(")
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if hadParen {
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if isUpsert {
		return &UpsertStmt{Dataset: ds, Expr: e}, nil
	}
	return &InsertStmt{Dataset: ds, Expr: e}, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	ds, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	alias := lastPathPart(ds)
	if p.acceptKw("AS") {
		alias, err = p.parseIdent()
		if err != nil {
			return nil, err
		}
	} else if p.tok.Kind == TokIdent {
		alias = p.tok.Text
		p.advance()
	}
	var where Expr
	if p.acceptKw("WHERE") {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return &DeleteStmt{Dataset: ds, Alias: alias, Where: where}, nil
}

func (p *Parser) parseLoad() (Statement, error) {
	p.advance() // LOAD
	if err := p.expectKw("DATASET"); err != nil {
		return nil, err
	}
	ds, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("USING"); err != nil {
		return nil, err
	}
	adapter, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	return &LoadStmt{Dataset: ds, Adapter: adapter, Params: params}, nil
}

func lastPathPart(s string) string {
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// --- Expressions ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL/MISSING/UNKNOWN
	if p.acceptKw("IS") {
		neg := p.acceptKw("NOT")
		switch {
		case p.acceptKw("NULL"):
			return &IsExpr{X: l, What: "NULL", Negate: neg}, nil
		case p.acceptKw("MISSING"):
			return &IsExpr{X: l, What: "MISSING", Negate: neg}, nil
		case p.acceptKw("UNKNOWN"):
			return &IsExpr{X: l, What: "UNKNOWN", Negate: neg}, nil
		}
		return nil, p.errf("expected NULL, MISSING or UNKNOWN after IS")
	}
	neg := false
	if p.isKw("NOT") && (p.next.Kind == TokKeyword && (p.next.Text == "BETWEEN" || p.next.Text == "IN" || p.next.Text == "LIKE")) {
		p.advance()
		neg = true
	}
	switch {
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Negate: neg}, nil
	case p.acceptKw("IN"):
		coll, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &InExpr{X: l, Coll: coll, Negate: neg}, nil
	case p.acceptKw("LIKE"):
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := Expr(&Binary{Op: "LIKE", L: l, R: r})
		if neg {
			e = &Unary{Op: "NOT", X: e}
		}
		return e, nil
	}
	switch op := p.op(); op {
	case "<>":
		op = "!="
		fallthrough
	case "<=", ">=", "!=", "=", "<", ">":
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		op := p.op()
		if op != "+" && op != "-" && op != "||" {
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.op()
		if op != "*" && op != "/" && op != "%" {
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxExprDepth {
		return nil, p.errf("expression nesting exceeds %d levels", maxExprDepth)
	}
	switch p.op() {
	case "-":
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	case "+":
		p.advance()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.op() {
		case ".":
			if p.next.Kind != TokIdent && p.next.Kind != TokQuotedIdent {
				return e, nil
			}
			p.advance()
			f, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			e = &FieldAccess{Base: e, Field: f}
		case "[":
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			e = &IndexAccess{Base: e, Index: idx}
		default:
			return e, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.Kind == TokInt:
		i, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer %q", p.tok.Text)
		}
		p.advance()
		return &Literal{Value: adm.Int64(i)}, nil
	case p.tok.Kind == TokFloat:
		f, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", p.tok.Text)
		}
		p.advance()
		return &Literal{Value: adm.Double(f)}, nil
	case p.tok.Kind == TokString:
		s := p.tok.Text
		p.advance()
		return &Literal{Value: adm.String(s)}, nil
	case p.acceptKw("TRUE"):
		return &Literal{Value: adm.Boolean(true)}, nil
	case p.acceptKw("FALSE"):
		return &Literal{Value: adm.Boolean(false)}, nil
	case p.acceptKw("NULL"):
		return &Literal{Value: adm.Null}, nil
	case p.acceptKw("MISSING"):
		return &Literal{Value: adm.Missing}, nil
	case p.isKw("CASE"):
		return p.parseCase()
	case p.isKw("SOME"), p.isKw("EVERY"):
		return p.parseQuantified()
	case p.isKw("EXISTS"):
		p.advance()
		x, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{X: x}, nil
	case p.isKw("SELECT"), p.isKw("WITH"), p.isKw("FROM"):
		return p.parseSelectCompound()
	case p.acceptOp("("):
		var e Expr
		var err error
		if p.isKw("SELECT") || p.isKw("WITH") || p.isKw("FROM") {
			e, err = p.parseSelectCompound()
		} else {
			e, err = p.parseExpr()
		}
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.acceptOp("{{"):
		m := &MultisetConstructor{}
		if p.acceptOp("}}") {
			return m, nil
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Elems = append(m.Elems, e)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp("}}"); err != nil {
				return nil, err
			}
			return m, nil
		}
	case p.acceptOp("{"):
		return p.parseObjectConstructor()
	case p.acceptOp("["):
		a := &ArrayConstructor{}
		if p.acceptOp("]") {
			return a, nil
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			a.Elems = append(a.Elems, e)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			return a, nil
		}
	case p.tok.Kind == TokIdent || p.tok.Kind == TokQuotedIdent:
		name := p.tok.Text
		p.advance()
		if p.acceptOp("(") {
			call := &Call{Fn: strings.ToLower(name)}
			if p.acceptKw("DISTINCT") {
				call.Distinct = true
			}
			// COUNT(*) special case.
			if p.acceptOp("*") {
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.acceptOp(")") {
				return call, nil
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.acceptOp(",") {
					continue
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
		}
		return &VarRef{Name: name}, nil
	}
	return nil, p.errf("unexpected token %s in expression", p.tok)
}

func (p *Parser) parseObjectConstructor() (Expr, error) {
	o := &ObjectConstructor{}
	if p.acceptOp("}") {
		return o, nil
	}
	// The fields collect on p.fields above those of any enclosing
	// constructor, and o takes a copy of its own, sized once.
	base := len(p.fields)
	for {
		var f ObjectField
		switch {
		case p.tok.Kind == TokString && p.next.Kind == TokOp && p.next.Text == ":":
			f.Name = &Literal{Value: adm.String(p.tok.Text)}
			p.advance()
		case p.tok.Kind == TokIdent || p.tok.Kind == TokQuotedIdent:
			// { alias: expr } or shorthand { v } meaning {"v": v}.
			name := p.tok.Text
			p.advance()
			f.Name = &Literal{Value: adm.String(name)}
			if !p.isOp(":") {
				f.Value = &VarRef{Name: name}
			}
		default:
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Name = e
		}
		if f.Value == nil {
			if err := p.expectOp(":"); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Value = v
		}
		p.fields = append(p.fields, f)
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp("}"); err != nil {
			return nil, err
		}
		o.Fields = slices.Clone(p.fields[base:])
		p.fields = p.fields[:base]
		return o, nil
	}
}

func (p *Parser) parseCase() (Expr, error) {
	p.advance() // CASE
	c := &CaseExpr{}
	if !p.isKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenThen{When: w, Then: t})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseQuantified() (Expr, error) {
	some := p.isKw("SOME")
	p.advance()
	v, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("IN"); err != nil {
		return nil, err
	}
	coll, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SATISFIES"); err != nil {
		return nil, err
	}
	pred, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &QuantifiedExpr{Some: some, Var: v, In: coll, Satisfies: pred}, nil
}

// parseSelectCompound parses a select block optionally chained with
// UNION ALL into further blocks.
func (p *Parser) parseSelectCompound() (Expr, error) {
	first, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.isKw("UNION") {
		return first, nil
	}
	u := &UnionExpr{Blocks: []Expr{first}}
	for p.acceptKw("UNION") {
		if err := p.expectKw("ALL"); err != nil {
			return nil, err
		}
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		u.Blocks = append(u.Blocks, next)
	}
	return u, nil
}

// parseSelect parses a full SFW block (optionally WITH-prefixed, and
// accepting the FROM-first order SQL++ also allows).
func (p *Parser) parseSelect() (Expr, error) {
	sel := &SelectExpr{}
	if p.acceptKw("WITH") {
		for {
			v, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.With = append(sel.With, LetClause{Var: v, Expr: e})
			if !p.acceptOp(",") {
				break
			}
		}
	}

	fromFirst := false
	if p.isKw("FROM") {
		fromFirst = true
		if err := p.parseFromClause(sel); err != nil {
			return nil, err
		}
		if err := p.parseLetWhereGroup(sel); err != nil {
			return nil, err
		}
	}

	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	if p.acceptKw("DISTINCT") {
		sel.Select.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	switch {
	case p.acceptKw("VALUE"):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Select.Value = e
	case p.acceptOp("*"):
		sel.Select.Star = true
	default:
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			alias := ""
			if p.acceptKw("AS") {
				alias, err = p.parseIdent()
				if err != nil {
					return nil, err
				}
			} else if p.tok.Kind == TokIdent {
				alias = p.tok.Text
				p.advance()
			} else {
				alias = implicitAlias(e)
			}
			sel.Select.Items = append(sel.Select.Items, Projection{Expr: e, Alias: alias})
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if !fromFirst {
		if p.isKw("FROM") {
			if err := p.parseFromClause(sel); err != nil {
				return nil, err
			}
		}
		if err := p.parseLetWhereGroup(sel); err != nil {
			return nil, err
		}
	}

	// ORDER BY / LIMIT / OFFSET always come last.
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.acceptKw("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

func (p *Parser) parseFromClause(sel *SelectExpr) error {
	if err := p.expectKw("FROM"); err != nil {
		return err
	}
	for {
		term, err := p.parseFromTerm()
		if err != nil {
			return err
		}
		sel.From = append(sel.From, *term)
		if !p.acceptOp(",") {
			return nil
		}
	}
}

func (p *Parser) parseFromTerm() (*FromTerm, error) {
	e, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	term := &FromTerm{Expr: e, Alias: implicitAlias(e)}
	if p.acceptKw("AS") {
		term.Alias, err = p.parseIdent()
		if err != nil {
			return nil, err
		}
	} else if p.tok.Kind == TokIdent {
		term.Alias = p.tok.Text
		p.advance()
	}
	if term.Alias == "" {
		return nil, p.errf("FROM term requires an alias")
	}
	for {
		switch {
		case p.isKw("JOIN") || p.isKw("INNER") || p.isKw("LEFT"):
			link := FromLink{IsJoin: true, Kind: JoinInner}
			if p.acceptKw("LEFT") {
				p.acceptKw("OUTER")
				link.Kind = JoinLeftOuter
			} else {
				p.acceptKw("INNER")
			}
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			je, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			link.Expr = je
			link.Alias = implicitAlias(je)
			if p.acceptKw("AS") {
				link.Alias, err = p.parseIdent()
				if err != nil {
					return nil, err
				}
			} else if p.tok.Kind == TokIdent {
				link.Alias = p.tok.Text
				p.advance()
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			link.On, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			term.Links = append(term.Links, link)
		case p.acceptKw("UNNEST"):
			ue, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			link := FromLink{Expr: ue, Alias: implicitAlias(ue)}
			if p.acceptKw("AS") {
				link.Alias, err = p.parseIdent()
				if err != nil {
					return nil, err
				}
			} else if p.tok.Kind == TokIdent {
				link.Alias = p.tok.Text
				p.advance()
			}
			if link.Alias == "" {
				return nil, p.errf("UNNEST requires an alias")
			}
			term.Links = append(term.Links, link)
		default:
			return term, nil
		}
	}
}

func (p *Parser) parseLetWhereGroup(sel *SelectExpr) error {
	for p.acceptKw("LET") {
		for {
			v, err := p.parseIdent()
			if err != nil {
				return err
			}
			if err := p.expectOp("="); err != nil {
				return err
			}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			sel.Lets = append(sel.Lets, LetClause{Var: v, Expr: e})
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			gk := GroupKey{Expr: e, Alias: implicitAlias(e)}
			if p.acceptKw("AS") {
				gk.Alias, err = p.parseIdent()
				if err != nil {
					return err
				}
			}
			if gk.Alias == "" {
				return p.errf("GROUP BY key requires AS alias (or use a named expression)")
			}
			sel.GroupBy = append(sel.GroupBy, gk)
			if !p.acceptOp(",") {
				break
			}
		}
		if p.acceptKw("GROUP") {
			if err := p.expectKw("AS"); err != nil {
				return err
			}
			g, err := p.parseIdent()
			if err != nil {
				return err
			}
			sel.GroupAs = g
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Having = e
	}
	return nil
}

// implicitAlias derives an alias from a variable or path expression.
func implicitAlias(e Expr) string {
	switch x := e.(type) {
	case *VarRef:
		return x.Name
	case *FieldAccess:
		return x.Field
	}
	return ""
}
