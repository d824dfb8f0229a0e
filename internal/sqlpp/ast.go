package sqlpp

import "asterix/internal/adm"

// Statement is any parsed SQL++ (or AQL) statement.
type Statement interface{ stmtNode() }

// --- DDL ---

// CreateDataverse is CREATE DATAVERSE name.
type CreateDataverse struct {
	Name        string
	IfNotExists bool
}

// UseDataverse is USE name.
type UseDataverse struct{ Name string }

// TypeExpr denotes a type in DDL: exactly one field is set.
type TypeExpr struct {
	Named    string    // reference to a named or primitive type
	Array    *TypeExpr // [T]
	Multiset *TypeExpr // {{T}}
	Object   *ObjectTypeExpr
}

// ObjectTypeExpr is an inline object type body.
type ObjectTypeExpr struct {
	Closed bool
	Fields []TypeField
}

// TypeField is one declared field.
type TypeField struct {
	Name     string
	Type     TypeExpr
	Optional bool
}

// CreateType is CREATE TYPE name AS [CLOSED] { ... }.
type CreateType struct {
	Name        string
	Body        ObjectTypeExpr
	IfNotExists bool
}

// CreateDataset is CREATE DATASET name(Type) PRIMARY KEY field.
type CreateDataset struct {
	Name        string
	TypeName    string
	PrimaryKey  []string
	IfNotExists bool
}

// CreateExternalDataset is CREATE EXTERNAL DATASET name(Type) USING
// adapter (params).
type CreateExternalDataset struct {
	Name        string
	TypeName    string
	Adapter     string
	Params      map[string]string
	IfNotExists bool
}

// CreateIndex is CREATE INDEX name ON ds(field,...) TYPE kind.
type CreateIndex struct {
	Name        string
	Dataset     string
	Fields      []string
	Kind        string // BTREE (default), RTREE, KEYWORD, ZORDER, HILBERT, GRID
	IfNotExists bool
}

// DropStmt is DROP DATASET|TYPE|INDEX|DATAVERSE name.
type DropStmt struct {
	What     string // DATASET, TYPE, INDEX, DATAVERSE
	Name     string
	On       string // for DROP INDEX ds.idx: dataset name
	IfExists bool
}

// LoadStmt is LOAD DATASET name USING adapter (params): bulk import.
type LoadStmt struct {
	Dataset string
	Adapter string
	Params  map[string]string
}

func (*CreateDataverse) stmtNode()       {}
func (*UseDataverse) stmtNode()          {}
func (*CreateType) stmtNode()            {}
func (*CreateDataset) stmtNode()         {}
func (*CreateExternalDataset) stmtNode() {}
func (*CreateIndex) stmtNode()           {}
func (*DropStmt) stmtNode()              {}
func (*LoadStmt) stmtNode()              {}

// --- DML ---

// InsertStmt is INSERT INTO ds (expr); the expression may be a single
// object or a collection of objects.
type InsertStmt struct {
	Dataset string
	Expr    Expr
}

// UpsertStmt is UPSERT INTO ds (expr).
type UpsertStmt struct {
	Dataset string
	Expr    Expr
}

// DeleteStmt is DELETE FROM ds [AS v] [WHERE cond].
type DeleteStmt struct {
	Dataset string
	Alias   string
	Where   Expr
}

func (*InsertStmt) stmtNode() {}
func (*UpsertStmt) stmtNode() {}
func (*DeleteStmt) stmtNode() {}

// QueryStmt is a top-level query.
type QueryStmt struct{ Body Expr }

func (*QueryStmt) stmtNode() {}

// ExplainStmt is EXPLAIN <query>: return the optimized plan as text.
type ExplainStmt struct{ Query *QueryStmt }

func (*ExplainStmt) stmtNode() {}

// --- Expressions ---

// Expr is any SQL++ expression.
type Expr interface{ exprNode() }

// Literal is a constant.
type Literal struct{ Value adm.Value }

// VarRef references a variable in scope, or a dataset. Binding is what the
// binder (algebricks.Bind) resolved it to: nil before the binder runs, and
// on a name a plan adds itself.
type VarRef struct {
	Name    string
	Binding *Binding
}

// BindKind is what declares a name: a FROM term, JOIN or UNNEST, a LET, a
// WITH, a GROUP BY key, GROUP AS, a SELECT alias (read in ORDER BY), a
// quantifier, the catalog's dataset, or the plan outside the statement's
// scopes ($result, an aggregate's variable).
type BindKind uint8

// Binding kinds.
const (
	BindFrom BindKind = iota + 1
	BindLet
	BindWith
	BindGroupKey
	BindGroupAs
	BindAlias
	BindQuantifier
	BindDataset
	BindOuter
)

// Binding is one declaration of a name; every VarRef that reads it points to
// it. Block is the block that declares it (nil for a dataset, an outer name
// and a quantifier outside any block).
type Binding struct {
	Name  string
	Kind  BindKind
	Block *SelectExpr
}

// FieldAccess is base.field.
type FieldAccess struct {
	Base  Expr
	Field string
}

// IndexAccess is base[idx].
type IndexAccess struct {
	Base  Expr
	Index Expr
}

// Call is fn(args...); DISTINCT supports COUNT(DISTINCT x).
type Call struct {
	Fn       string // lower-cased
	Args     []Expr
	Distinct bool
}

// Unary is op x (-, NOT).
type Unary struct {
	Op string
	X  Expr
}

// Binary is l op r; Op in {+ - * / % || = != < <= > >= AND OR LIKE}.
type Binary struct {
	Op   string
	L, R Expr
}

// IsExpr is x IS [NOT] NULL|MISSING|UNKNOWN.
type IsExpr struct {
	X      Expr
	What   string // NULL, MISSING, UNKNOWN
	Negate bool
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

// InExpr is x [NOT] IN coll.
type InExpr struct {
	X, Coll Expr
	Negate  bool
}

// CaseExpr is CASE [operand] WHEN .. THEN .. [ELSE ..] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenThen
	Else    Expr
}

// WhenThen is one CASE arm.
type WhenThen struct{ When, Then Expr }

// QuantifiedExpr is SOME|EVERY v IN coll SATISFIES pred.
type QuantifiedExpr struct {
	Some      bool // else EVERY
	Var       string
	In        Expr
	Satisfies Expr
}

// ExistsExpr is [NOT] EXISTS expr.
type ExistsExpr struct {
	X      Expr
	Negate bool
}

// ObjectConstructor is { "name": expr, ... }.
type ObjectConstructor struct{ Fields []ObjectField }

// ObjectField is one constructed field; Name may be a computed expression.
type ObjectField struct {
	Name  Expr
	Value Expr
}

// ArrayConstructor is [e, ...].
type ArrayConstructor struct{ Elems []Expr }

// MultisetConstructor is {{e, ...}}.
type MultisetConstructor struct{ Elems []Expr }

// SelectExpr is a (possibly nested) SFW query block.
type SelectExpr struct {
	With    []LetClause
	Select  SelectClause
	From    []FromTerm
	Lets    []LetClause
	Where   Expr
	GroupBy []GroupKey
	GroupAs string
	Having  Expr
	OrderBy []OrderItem
	Limit   Expr
	Offset  Expr

	// Set by the binder: Decls lists, in order, what the block declares
	// (its clauses' names, its SELECT aliases, its quantifiers' variables),
	// and Correlation what a nested block reads from outside itself (names
	// of enclosing scopes, datasets, columns of the plan).
	Decls, Correlation []*Binding
}

// LetClause binds a name to an expression.
type LetClause struct {
	Var  string
	Expr Expr
}

// SelectClause is the projection list.
type SelectClause struct {
	Distinct bool
	Star     bool
	Value    Expr // SELECT VALUE expr
	Items    []Projection
}

// Projection is expr [AS alias].
type Projection struct {
	Expr  Expr
	Alias string
}

// JoinKindAST distinguishes join flavors in the AST.
type JoinKindAST int

// AST join kinds.
const (
	JoinInner JoinKindAST = iota
	JoinLeftOuter
)

// FromTerm is one FROM item with its chained joins and unnests.
type FromTerm struct {
	Expr  Expr
	Alias string
	Links []FromLink
}

// FromLink is a JOIN or UNNEST hanging off a from-term.
type FromLink struct {
	IsJoin bool
	Kind   JoinKindAST
	Expr   Expr
	Alias  string
	On     Expr // joins only
}

// GroupKey is expr [AS alias].
type GroupKey struct {
	Expr  Expr
	Alias string
}

// OrderItem is expr [ASC|DESC].
type OrderItem struct {
	Expr Expr
	Desc bool
}

// UnionExpr is block UNION ALL block [UNION ALL ...]; each block is a
// SelectExpr (bag-union semantics, no duplicate elimination).
type UnionExpr struct{ Blocks []Expr }

func (*UnionExpr) exprNode() {}

func (*Literal) exprNode()             {}
func (*VarRef) exprNode()              {}
func (*FieldAccess) exprNode()         {}
func (*IndexAccess) exprNode()         {}
func (*Call) exprNode()                {}
func (*Unary) exprNode()               {}
func (*Binary) exprNode()              {}
func (*IsExpr) exprNode()              {}
func (*Between) exprNode()             {}
func (*InExpr) exprNode()              {}
func (*CaseExpr) exprNode()            {}
func (*QuantifiedExpr) exprNode()      {}
func (*ExistsExpr) exprNode()          {}
func (*ObjectConstructor) exprNode()   {}
func (*ArrayConstructor) exprNode()    {}
func (*MultisetConstructor) exprNode() {}
func (*SelectExpr) exprNode()          {}
