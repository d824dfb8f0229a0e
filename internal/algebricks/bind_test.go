package algebricks

import (
	"fmt"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/sqlpp"
)

var kindNames = map[sqlpp.BindKind]string{
	sqlpp.BindFrom: "from", sqlpp.BindLet: "let", sqlpp.BindWith: "with",
	sqlpp.BindGroupKey: "key", sqlpp.BindGroupAs: "groupas", sqlpp.BindAlias: "alias",
	sqlpp.BindQuantifier: "quant", sqlpp.BindDataset: "dataset", sqlpp.BindOuter: "outer",
}

// describeBindings renders what the binder resolved in e: each name in walk
// order as name=kind@block, block being the declaring block's position in
// the pre-order list of e's blocks (- for none), then each nested block's
// correlation list as #position[name ...].
func describeBindings(e sqlpp.Expr) string {
	var blocks []*sqlpp.SelectExpr
	var refs []*sqlpp.VarRef
	var visit func(sqlpp.Expr) sqlpp.Expr
	visit = func(e sqlpp.Expr) sqlpp.Expr {
		switch x := e.(type) {
		case *sqlpp.SelectExpr:
			blocks = append(blocks, x)
		case *sqlpp.VarRef:
			refs = append(refs, x)
		}
		return sqlpp.RewriteScopes(e, visit)
	}
	visit(e)
	position := func(b *sqlpp.SelectExpr) string {
		for i, x := range blocks {
			if x == b {
				return fmt.Sprint(i)
			}
		}
		return "-"
	}
	var out []string
	for _, r := range refs {
		out = append(out, fmt.Sprintf("%s=%s@%s", r.Name, kindNames[r.Binding.Kind], position(r.Binding.Block)))
	}
	for i, b := range blocks[1:] {
		var names []string
		for _, c := range b.Correlation {
			names = append(names, c.Name)
		}
		out = append(out, fmt.Sprintf("#%d[%s]", i+1, strings.Join(names, " ")))
	}
	return strings.Join(out, " ")
}

// TestBind checks the binding of every name of a statement: one case per
// binding kind, shadowing across scopes and within a block, and the
// correlation lists of nested, UNION and EXISTS blocks.
func TestBind(t *testing.T) {
	cat := testCatalog()
	for _, c := range []struct{ name, src, want string }{
		{"from join unnest",
			`SELECT VALUE [u.id, m.mid, f] FROM Users u JOIN Messages m ON m.authorId = u.id UNNEST u.friends f`,
			"Users=dataset@- Messages=dataset@- m=from@0 u=from@0 u=from@0 u=from@0 m=from@0 f=from@0"},
		{"let and with",
			`WITH k AS 1 SELECT VALUE x + k FROM Users u LET x = u.id LIMIT k`,
			"Users=dataset@- u=from@0 x=let@0 k=with@0 k=with@0"},
		{"group key and group as",
			`SELECT a, COLL_COUNT(g) AS n, COUNT(u.id) AS c FROM Users u GROUP BY u.age AS a GROUP AS g`,
			"Users=dataset@- u=from@0 a=key@0 g=groupas@0 u=from@0"},
		{"select alias in order by, nested too",
			`SELECT u.id AS uid FROM Users u ORDER BY uid, (SELECT VALUE uid FROM [1] x)[0]`,
			"Users=dataset@- u=from@0 uid=alias@0 uid=alias@0 #1[uid]"},
		{"quantifier",
			`SELECT VALUE (SOME x IN u.friends SATISFIES x > u.id) FROM Users u`,
			"Users=dataset@- u=from@0 x=quant@0 u=from@0"},
		{"FROM inside a nested block shadows",
			`SELECT VALUE (SELECT VALUE [u.mid, w] FROM Messages u) FROM Users u LET w = u.id`,
			"Users=dataset@- u=from@0 Messages=dataset@- u`1=from@1 w=let@0 #1[Messages w]"},
		{"quantifier variable shadows",
			`SELECT VALUE (SOME u IN [1, 2] SATISFIES u = 1) AND u.id = 1 FROM Users u`,
			"Users=dataset@- u`1=quant@0 u=from@0"},
		{"LET over FROM in one block",
			`SELECT VALUE u FROM Users u LET u = u.name`,
			"Users=dataset@- u=from@0 u=let@0"},
		{"nested, UNION and EXISTS blocks",
			`SELECT VALUE u.id FROM Users u WHERE EXISTS (SELECT VALUE 1 FROM [1] x WHERE u.id < 3 UNION ALL SELECT VALUE m FROM Messages m WHERE m.authorId = u.id)`,
			"Users=dataset@- u=from@0 Messages=dataset@- m=from@2 u=from@0 m=from@2 u=from@0 #1[u] #2[Messages u]"},
		{"a variable hides a dataset",
			`SELECT VALUE (SELECT VALUE Messages FROM [1] x) FROM Users u, Messages Messages`,
			"Users=dataset@- Messages=dataset@- Messages=from@0 #1[Messages]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := parseBound(t, cat, c.src+";")
			if got := describeBindings(q.Body); got != c.want {
				t.Errorf("%s\n got %s\nwant %s", c.src, got, c.want)
			}
			// Binding again changes nothing.
			if err := Bind(q.Body, cat); err != nil {
				t.Fatal(err)
			}
			if got := describeBindings(q.Body); got != c.want {
				t.Errorf("bound twice: %s\n got %s\nwant %s", c.src, got, c.want)
			}
		})
	}
}

// TestBindKeepsWrittenNames: a renamed declaration projects under the name
// it was written with, in SELECT * and in GROUP AS, on both engines.
func TestBindKeepsWrittenNames(t *testing.T) {
	cat := testCatalog()
	for _, src := range []string{
		`SELECT VALUE (SELECT * FROM [u.id] u) FROM Users u WHERE u.id < 3`,
		`SELECT VALUE (SELECT VALUE g FROM [u.id] u GROUP BY u AS k GROUP AS g) FROM Users u WHERE u.id < 3`,
	} {
		jobMatchesInterp(t, cat, src, false)
		for _, row := range runJob(t, cat, src) {
			if s := adm.ToJSON(row); !strings.Contains(s, `"u":`) || strings.Contains(s, "`") {
				t.Errorf("%s: row %s, want the field name u", src, s)
			}
		}
	}
}

// TestBindUnboundName: a name nothing in scope declares fails at binding,
// wherever it is, empty input or not; LIMIT and OFFSET see only WITH.
func TestBindUnboundName(t *testing.T) {
	cat := testCatalog()
	for _, src := range []string{
		`SELECT VALUE nosuch FROM Users u WHERE u.id > 100`,
		`SELECT VALUE u FROM Users u WHERE EXISTS (SELECT VALUE 1 FROM [1] x WHERE x = nosuch)`,
		`SELECT VALUE (SOME x IN [1] SATISFIES x = nosuch) FROM Users u`,
		`SELECT VALUE u FROM Users u ORDER BY nosuch`,
		`SELECT VALUE u FROM Users u LIMIT u.nosuch`,
		`nosuch + 1`,
	} {
		q, err := sqlpp.ParseQuery(src + ";")
		if err != nil {
			t.Fatal(err)
		}
		name := "nosuch"
		if strings.Contains(src, "LIMIT") {
			name = "u"
		}
		want := fmt.Sprintf("eval: undefined variable %q", name)
		if err := Bind(q.Body, cat); err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", src, err, want)
		}
	}
}

// TestSubstituteRecomputesCorrelation: a rewrite that moves a group key's
// variable or the result into a nested block leaves that block's
// correlation list exact — the key or $result, and no longer the name the
// replaced expression read.
func TestSubstituteRecomputesCorrelation(t *testing.T) {
	cat := testCatalog()
	q := parseBound(t, cat, `SELECT u.age AS a, (SELECT VALUE u.age + x FROM [1] x) AS s FROM Users u GROUP BY u.age;`)
	sel := q.Body.(*sqlpp.SelectExpr)
	proj, _, _, _ := groupBlock(sel, projectionFor(sel))
	nested := proj.(*sqlpp.ObjectConstructor).Fields[1].Value
	if c := nested.(*sqlpp.SelectExpr).Correlation; len(c) != 1 || c[0].Name != "age" || c[0].Kind != sqlpp.BindGroupKey {
		t.Errorf("grouped: correlation %v, want the key age alone", c)
	}

	q = parseBound(t, cat, `SELECT DISTINCT u.id AS a FROM Users u ORDER BY (SELECT VALUE -u.id FROM [1] x)[0];`)
	sel = q.Body.(*sqlpp.SelectExpr)
	rebased := rebaseOnResult(sel.OrderBy[0].Expr, sel).(*sqlpp.IndexAccess).Base.(*sqlpp.SelectExpr)
	if c := rebased.Correlation; len(c) != 1 || c[0].Name != ResultVar || c[0].Kind != sqlpp.BindOuter {
		t.Errorf("distinct: correlation %v, want $result alone", c)
	}
}
