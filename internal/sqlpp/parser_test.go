package sqlpp

import (
	"strings"
	"testing"

	"asterix/internal/adm"
)

// figure3DDL is the paper's Figure 3(a,b) nearly verbatim.
const figure3DDL = `
CREATE TYPE GleambookUserType AS {
	id: int,
	alias: string,
	name: string,
	userSince: datetime,
	friendIds: {{ int }},
	employment: [EmploymentType]
};

CREATE TYPE GleambookMessageType AS {
	messageId: int,
	authorId: int,
	inResponseTo: int?,
	senderLocation: point?,
	message: string
};

CREATE TYPE EmploymentType AS {
	organizationName: string,
	startDate: date,
	endDate: date?
};

CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id;
CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;

CREATE INDEX gbUserSinceIdx ON GleambookUsers(userSince);
CREATE INDEX gbAuthorIdx ON GleambookMessages(authorId) TYPE BTREE;
CREATE INDEX gbSenderLocIndex ON GleambookMessages(senderLocation) TYPE RTREE;
CREATE INDEX gbMessageIdx ON GleambookMessages(message) TYPE KEYWORD;

CREATE TYPE AccessLogType AS CLOSED {
	ip: string,
	time: string,
	user: string,
	verb: string,
	'path': string,
	stat: int32,
	size: int32
};

CREATE EXTERNAL DATASET AccessLog(AccessLogType) USING localfs
	(("path"="localhost:///Users/mjc/extdemo/accesses.txt"),
	 ("format"="delimited-text"), ("delimiter"="|"));
`

func TestParseFigure3DDL(t *testing.T) {
	stmts, err := ParseScript(figure3DDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 11 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	ct := stmts[0].(*CreateType)
	if ct.Name != "GleambookUserType" || ct.Body.Closed {
		t.Errorf("type 0: %+v", ct)
	}
	if len(ct.Body.Fields) != 6 {
		t.Fatalf("user type fields = %d", len(ct.Body.Fields))
	}
	if f := ct.Body.Fields[4]; f.Name != "friendIds" || f.Type.Multiset == nil || f.Type.Multiset.Named != "int" {
		t.Errorf("friendIds field wrong: %+v", f)
	}
	if f := ct.Body.Fields[5]; f.Type.Array == nil || f.Type.Array.Named != "EmploymentType" {
		t.Errorf("employment field wrong: %+v", f)
	}
	mt := stmts[1].(*CreateType)
	if !mt.Body.Fields[2].Optional || !mt.Body.Fields[3].Optional {
		t.Error("optional fields not marked")
	}
	ds := stmts[3].(*CreateDataset)
	if ds.Name != "GleambookUsers" || ds.TypeName != "GleambookUserType" || ds.PrimaryKey[0] != "id" {
		t.Errorf("dataset: %+v", ds)
	}
	idx := stmts[7].(*CreateIndex)
	if idx.Kind != "RTREE" || idx.Fields[0] != "senderLocation" {
		t.Errorf("rtree index: %+v", idx)
	}
	alt := stmts[8].(*CreateIndex)
	if alt.Kind != "KEYWORD" {
		t.Errorf("keyword index: %+v", alt)
	}
	closed := stmts[10].(*CreateExternalDataset)
	if closed.Adapter != "localfs" || closed.Params["format"] != "delimited-text" || closed.Params["delimiter"] != "|" {
		t.Errorf("external dataset: %+v", closed)
	}
	closedTy := stmts[9].(*CreateType)
	if !closedTy.Body.Closed {
		t.Error("AccessLogType should be CLOSED")
	}
	// The quoted 'path' field parses as a name.
	found := false
	for _, f := range closedTy.Body.Fields {
		if f.Name == "path" {
			found = true
		}
	}
	if !found {
		t.Error("'path' field missing")
	}
}

// figure3Query is the paper's Figure 3(c) query.
const figure3Query = `
WITH endTime AS current_datetime(),
     startTime AS endTime - duration("P30D")
SELECT nf AS numFriends, COUNT(user) AS activeUsers
FROM GleambookUsers user
LET nf = COLL_COUNT(user.friendIds)
WHERE SOME logrec IN AccessLog SATISFIES
      user.alias = logrec.user
  AND datetime(logrec.time) >= startTime
  AND datetime(logrec.time) <= endTime
GROUP BY nf;
`

func TestParseFigure3Query(t *testing.T) {
	stmts, err := ParseScript(figure3Query)
	if err != nil {
		t.Fatal(err)
	}
	q := stmts[0].(*QueryStmt)
	sel := q.Body.(*SelectExpr)
	if len(sel.With) != 2 || sel.With[0].Var != "endTime" || sel.With[1].Var != "startTime" {
		t.Fatalf("WITH clause: %+v", sel.With)
	}
	if len(sel.Select.Items) != 2 || sel.Select.Items[0].Alias != "numFriends" || sel.Select.Items[1].Alias != "activeUsers" {
		t.Fatalf("projections: %+v", sel.Select.Items)
	}
	if len(sel.From) != 1 || sel.From[0].Alias != "user" {
		t.Fatalf("FROM: %+v", sel.From)
	}
	if len(sel.Lets) != 1 || sel.Lets[0].Var != "nf" {
		t.Fatalf("LET: %+v", sel.Lets)
	}
	qf, ok := sel.Where.(*QuantifiedExpr)
	if !ok || !qf.Some || qf.Var != "logrec" {
		t.Fatalf("WHERE should be a SOME quantifier: %T", sel.Where)
	}
	// SATISFIES body must contain the two AND-ed datetime bounds.
	b, ok := qf.Satisfies.(*Binary)
	if !ok || b.Op != "AND" {
		t.Fatalf("satisfies: %T", qf.Satisfies)
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Alias != "nf" {
		t.Fatalf("GROUP BY: %+v", sel.GroupBy)
	}
}

// figure3Upsert is the paper's Figure 3(d) statement.
const figure3Upsert = `
UPSERT INTO GleambookUsers (
	{"id":667,
	 "alias":"dfrump",
	 "name":"DonaldFrump",
	 "nickname":"Frumpkin",
	 "userSince":datetime("2017-01-01T00:00:00"),
	 "friendIds":{{}},
	 "employment":[{"organizationName":"USA",
	                "startDate":date("2017-01-20")}],
	 "gender":"M"}
);
`

func TestParseFigure3Upsert(t *testing.T) {
	stmts, err := ParseScript(figure3Upsert)
	if err != nil {
		t.Fatal(err)
	}
	up := stmts[0].(*UpsertStmt)
	if up.Dataset != "GleambookUsers" {
		t.Fatalf("dataset: %s", up.Dataset)
	}
	obj := up.Expr.(*ObjectConstructor)
	if len(obj.Fields) != 8 {
		t.Fatalf("constructed fields = %d", len(obj.Fields))
	}
	// friendIds is an empty multiset constructor.
	var friendIdx int
	for i, f := range obj.Fields {
		if lit, ok := f.Name.(*Literal); ok && lit.Value == adm.String("friendIds") {
			friendIdx = i
		}
	}
	if _, ok := obj.Fields[friendIdx].Value.(*MultisetConstructor); !ok {
		t.Errorf("friendIds should be multiset constructor: %T", obj.Fields[friendIdx].Value)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		`SELECT VALUE 1 + 2 * 3`,
		`SELECT VALUE -x.y[0].z FROM ds x`,
		`SELECT VALUE a LIKE "%foo%" FROM ds a`,
		`SELECT VALUE CASE WHEN x > 1 THEN "big" ELSE "small" END FROM ds x`,
		`SELECT VALUE CASE x WHEN 1 THEN "one" END FROM ds x`,
		`SELECT x.a, COUNT(*) AS n FROM ds x GROUP BY x.a AS a HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 10 OFFSET 2`,
		`SELECT DISTINCT VALUE x FROM ds x WHERE x BETWEEN 1 AND 10`,
		`SELECT VALUE x FROM ds x WHERE x.v IN [1, 2, 3]`,
		`SELECT VALUE x FROM ds x WHERE x.v NOT IN [1] AND x.w IS NOT MISSING`,
		`SELECT VALUE {"k": x, "nested": {"a": [1, {{2}}]}} FROM ds x`,
		`SELECT u.name, m.message FROM Users u JOIN Messages m ON m.authorId = u.id`,
		`SELECT u.name FROM Users u LEFT OUTER JOIN Msgs m ON m.a = u.id WHERE m.a IS MISSING`,
		`SELECT e.organizationName FROM Users u UNNEST u.employment e`,
		`SELECT VALUE EVERY f IN u.friendIds SATISFIES f > 0 FROM Users u`,
		`SELECT VALUE EXISTS (SELECT VALUE 1 FROM ds x)`,
		`FROM Users u WHERE u.id = 1 SELECT u.name`,
		`SELECT g FROM ds x GROUP BY x.k AS k GROUP AS g`,
		`SELECT VALUE t FROM ds t ORDER BY t.a, t.b DESC`,
	}
	for _, src := range cases {
		if _, err := ParseScript(src + ";"); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`SELECT`,
		`SELECT VALUE`,
		`SELECT VALUE 1 FROM`,
		`CREATE DATASET d PRIMARY KEY x`, // missing type
		`CREATE INDEX ON ds(x)`,
		`FROM ds x`, // no SELECT
		`SELECT VALUE x FROM ds x GROUP BY`,
		`SELECT VALUE (1 + ) FROM ds x`,
		`UPSERT INTO`,
		`SELECT VALUE "unterminated`,
		`SELECT VALUE x..y FROM ds x`,
		`SELECT VALUE CASE END`,
	}
	for _, src := range cases {
		if _, err := ParseScript(src + ";"); err == nil {
			t.Errorf("parse %q should fail", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
-- line comment
SELECT VALUE 1 /* block
comment */ + 2;
`
	stmts, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Fatalf("statements = %d", len(stmts))
	}
}

func TestParseDeleteAndDrop(t *testing.T) {
	stmts, err := ParseScript(`
		DELETE FROM Users u WHERE u.id = 5;
		DROP DATASET Users IF EXISTS;
		DROP INDEX Users.idx;
	`)
	if err != nil {
		t.Fatal(err)
	}
	del := stmts[0].(*DeleteStmt)
	if del.Dataset != "Users" || del.Alias != "u" || del.Where == nil {
		t.Errorf("delete: %+v", del)
	}
	drop := stmts[1].(*DropStmt)
	if drop.What != "DATASET" || !drop.IfExists {
		t.Errorf("drop: %+v", drop)
	}
	di := stmts[2].(*DropStmt)
	if di.What != "INDEX" || di.On != "Users" || di.Name != "idx" {
		t.Errorf("drop index: %+v", di)
	}
}

func TestParseLoad(t *testing.T) {
	stmts, err := ParseScript(`LOAD DATASET Users USING localfs (("path"="/tmp/u.json"), ("format"="json"));`)
	if err != nil {
		t.Fatal(err)
	}
	ld := stmts[0].(*LoadStmt)
	if ld.Dataset != "Users" || ld.Params["format"] != "json" {
		t.Errorf("load: %+v", ld)
	}
}

func TestLexerTokens(t *testing.T) {
	lx := NewLexer("SELECT x <= 3.5 != 'str' `quoted id` {{")
	var kinds []TokKind
	var texts []string
	for {
		tok, err := lx.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "x", "<=", "3.5", "!=", "str", "quoted id", "{{"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("texts = %v", texts)
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[3] != TokFloat || kinds[5] != TokString || kinds[6] != TokQuotedIdent {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestParseUnionAll(t *testing.T) {
	stmts, err := ParseScript(`
		SELECT VALUE 1 FROM D d
		UNION ALL
		SELECT VALUE 2 FROM E e
		UNION ALL
		SELECT VALUE 3 FROM F f;`)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := stmts[0].(*QueryStmt).Body.(*UnionExpr)
	if !ok {
		t.Fatalf("expected UnionExpr, got %T", stmts[0].(*QueryStmt).Body)
	}
	if len(u.Blocks) != 3 {
		t.Fatalf("blocks: %d", len(u.Blocks))
	}
	// UNION without ALL is rejected (bag semantics only).
	if _, err := ParseScript(`SELECT VALUE 1 FROM D d UNION SELECT VALUE 2 FROM E e;`); err == nil {
		t.Error("UNION without ALL should fail")
	}
	// Parenthesized union as a subquery expression.
	if _, err := ParseScript(`SELECT VALUE coll_count((SELECT VALUE 1 FROM D d UNION ALL SELECT VALUE 2 FROM E e)) FROM [1] x;`); err != nil {
		t.Errorf("nested union: %v", err)
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	q, err := ParseQuery(`SELECT VALUE 1 + 2 * 3 - 4 FROM [0] x;`)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.Body.(*SelectExpr)
	// ((1 + (2*3)) - 4): top is '-'.
	top := sel.Select.Value.(*Binary)
	if top.Op != "-" {
		t.Fatalf("top op: %s", top.Op)
	}
	add := top.L.(*Binary)
	if add.Op != "+" {
		t.Fatalf("second op: %s", add.Op)
	}
	if mul := add.R.(*Binary); mul.Op != "*" {
		t.Fatalf("inner op: %s", mul.Op)
	}
	// AND binds tighter than OR.
	q, _ = ParseQuery(`SELECT VALUE a OR b AND c FROM [0] x;`)
	or := q.Body.(*SelectExpr).Select.Value.(*Binary)
	if or.Op != "OR" {
		t.Fatalf("boolean top: %s", or.Op)
	}
	if and := or.R.(*Binary); and.Op != "AND" {
		t.Fatalf("boolean inner: %s", and.Op)
	}
}

func TestParseKeywordCaseInsensitive(t *testing.T) {
	if _, err := ParseScript(`select value u.x from Users u where u.y > 1 order by u.x limit 2;`); err != nil {
		t.Fatal(err)
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	stmts, err := ParseScript("SELECT VALUE u.`weird name` FROM `My Dataset` u;")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmts[0].(*QueryStmt).Body.(*SelectExpr)
	fa := sel.Select.Value.(*FieldAccess)
	if fa.Field != "weird name" {
		t.Errorf("field: %q", fa.Field)
	}
	if vr := sel.From[0].Expr.(*VarRef); vr.Name != "My Dataset" {
		t.Errorf("dataset: %q", vr.Name)
	}
}

func TestParseDeepNesting(t *testing.T) {
	src := `SELECT VALUE ((((1))))` + ` FROM [0] x;`
	if _, err := ParseScript(src); err != nil {
		t.Fatal(err)
	}
	// Deeply nested subqueries parse too.
	if _, err := ParseScript(`SELECT VALUE (SELECT VALUE (SELECT VALUE y FROM [2] y) FROM [1] z) FROM [0] x;`); err != nil {
		t.Fatal(err)
	}
}

// TestEveryKeywordLexes: each reserved word, in any case, lexes as a keyword
// whose text is its canonical spelling (keyword's fold buffer holds it).
func TestEveryKeywordLexes(t *testing.T) {
	for kw := range keywords {
		for _, src := range []string{kw, strings.ToLower(kw), strings.ToLower(kw[:1]) + kw[1:]} {
			if tok, err := NewLexer(src).Next(); err != nil || tok.Kind != TokKeyword || tok.Text != kw {
				t.Errorf("%q lexes as %v, %v; want keyword %s", src, tok, err, kw)
			}
		}
	}
}
