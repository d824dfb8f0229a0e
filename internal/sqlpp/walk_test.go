package sqlpp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"testing"

	"asterix/internal/adm"
)

// everyKind returns one instance of each expression kind, every child a
// distinct node. The CASE has both an operand and an ELSE, and the
// quantifier a body, so no slot goes unexercised.
func everyKind() []Expr {
	n := 0
	leaf := func() Expr { n++; return &Literal{Value: adm.Int64(int64(n))} }
	block := &SelectExpr{Select: SelectClause{Value: leaf()}}
	return []Expr{
		leaf(),
		&VarRef{Name: "v"},
		&FieldAccess{Base: leaf(), Field: "f"},
		&IndexAccess{Base: leaf(), Index: leaf()},
		&Call{Fn: "f", Args: []Expr{leaf(), leaf(), leaf()}, Distinct: true},
		&Unary{Op: "-", X: leaf()},
		&Binary{Op: "+", L: leaf(), R: leaf()},
		&IsExpr{X: leaf(), What: "NULL", Negate: true},
		&Between{X: leaf(), Lo: leaf(), Hi: leaf(), Negate: true},
		&InExpr{X: leaf(), Coll: leaf(), Negate: true},
		&CaseExpr{Operand: leaf(), Whens: []WhenThen{{leaf(), leaf()}, {leaf(), leaf()}}, Else: leaf()},
		&QuantifiedExpr{Some: true, Var: "q", In: leaf(), Satisfies: leaf()},
		&ExistsExpr{X: block, Negate: true},
		&ObjectConstructor{Fields: []ObjectField{{leaf(), leaf()}, {leaf(), leaf()}}},
		&ArrayConstructor{Elems: []Expr{leaf(), leaf()}},
		&MultisetConstructor{Elems: []Expr{leaf()}},
		block,
		&UnionExpr{Blocks: []Expr{block, &SelectExpr{Select: SelectClause{Value: leaf()}}}},
	}
}

// TestEveryKindCovered reads ast.go and requires an instance in everyKind
// of every type with an exprNode method, so that a new kind cannot be left
// out of slots unnoticed.
func TestEveryKindCovered(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, e := range everyKind() {
		have[reflect.TypeOf(e).Elem().Name()] = true
	}
	kinds := 0
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "exprNode" || fd.Recv == nil {
			continue
		}
		kinds++
		name := fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
		if !have[name] {
			t.Errorf("expression kind %s has no instance in everyKind", name)
		}
	}
	if kinds != len(have) {
		t.Errorf("ast.go declares %d expression kinds, everyKind has %d", kinds, len(have))
	}
}

// TestRewriteIdentity checks that a rewrite changing no child returns the
// node itself.
func TestRewriteIdentity(t *testing.T) {
	for _, e := range everyKind() {
		if got := Rewrite(e, func(c Expr) Expr { return c }); got != e {
			t.Errorf("%T: identity rewrite returned a new node", e)
		}
	}
}

// TestRewriteReachesEveryChild replaces every child and checks that the
// rewrite visits exactly what Children lists, in order, puts each
// replacement where its original was, keeps the node's own attributes,
// and leaves the original untouched.
func TestRewriteReachesEveryChild(t *testing.T) {
	for _, e := range everyKind() {
		before := Children(e, nil)
		var visited, repl []Expr
		got := Rewrite(e, func(c Expr) Expr {
			visited = append(visited, c)
			r := &VarRef{Name: "r"}
			repl = append(repl, r)
			return r
		})
		if !slices.Equal(visited, before) {
			t.Errorf("%T: rewrite visited %d children, Children lists %d", e, len(visited), len(before))
		}
		if !slices.Equal(Children(e, nil), before) {
			t.Errorf("%T: rewrite modified the original", e)
		}
		if len(before) == 0 {
			if got != e {
				t.Errorf("%T: a node without children was copied", e)
			}
			continue
		}
		if got == e || reflect.TypeOf(got) != reflect.TypeOf(e) {
			t.Errorf("%T: rewrite returned %T, the same node or another kind", e, got)
			continue
		}
		if !slices.Equal(Children(got, nil), repl) {
			t.Errorf("%T: the copy does not hold the replacements in order", e)
		}
		// Put the original children back: the copy must then equal e.
		i := 0
		back := Rewrite(got, func(Expr) Expr { i++; return before[i-1] })
		if !reflect.DeepEqual(back, e) {
			t.Errorf("%T: copy lost an attribute: %#v, want %#v", e, back, e)
		}
	}
}

// TestChildrenListEveryField finds every expression a node holds, by
// reflection over its fields, and requires Children to list exactly those,
// in order, minus what the scope rule makes opaque: everything under a
// SELECT block, a UNION or an EXISTS, and a quantifier's body.
func TestChildrenListEveryField(t *testing.T) {
	for _, e := range everyKind() {
		var want []Expr
		switch x := e.(type) {
		case *SelectExpr, *UnionExpr, *ExistsExpr:
		case *QuantifiedExpr:
			want = []Expr{x.In}
		default:
			fieldExprs(reflect.ValueOf(e).Elem(), &want)
		}
		if got := Children(e, nil); !slices.Equal(got, want) {
			t.Errorf("%T: Children lists %d expressions, its fields hold %d", e, len(got), len(want))
		}
	}
	if got := Children(&CaseExpr{Whens: []WhenThen{{&VarRef{Name: "a"}, &VarRef{Name: "b"}}}}, nil); len(got) != 2 {
		t.Errorf("CASE without operand or ELSE lists %d children, want 2", len(got))
	}
}

// fieldExprs appends every non-nil Expr held in v, directly or inside
// slices and structs.
func fieldExprs(v reflect.Value, out *[]Expr) {
	switch v.Kind() {
	case reflect.Interface:
		if e, ok := v.Interface().(Expr); ok && !v.IsNil() {
			*out = append(*out, e)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fieldExprs(v.Index(i), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fieldExprs(v.Field(i), out)
		}
	}
}

// TestRewriteScopesReachesEveryField: RewriteScopes visits every expression
// a node holds, an opaque node's clauses included — every clause of a full
// block — replaces each in a copy, and leaves the original untouched.
func TestRewriteScopesReachesEveryField(t *testing.T) {
	n := 0
	leaf := func() Expr { n++; return &Literal{Value: adm.Int64(int64(n))} }
	full := &SelectExpr{
		With:    []LetClause{{Var: "w", Expr: leaf()}},
		Select:  SelectClause{Items: []Projection{{Expr: leaf(), Alias: "a"}, {Expr: leaf(), Alias: "b"}}},
		From:    []FromTerm{{Expr: leaf(), Alias: "f", Links: []FromLink{{IsJoin: true, Expr: leaf(), Alias: "j", On: leaf()}, {Expr: leaf(), Alias: "u"}}}},
		Lets:    []LetClause{{Var: "l", Expr: leaf()}},
		Where:   leaf(),
		GroupBy: []GroupKey{{Expr: leaf(), Alias: "k"}},
		Having:  leaf(),
		OrderBy: []OrderItem{{Expr: leaf()}},
		Limit:   leaf(),
		Offset:  leaf(),
	}
	for _, e := range append(everyKind(), full) {
		var want []Expr
		fieldExprs(reflect.ValueOf(e).Elem(), &want)
		var visited, repl []Expr
		got := RewriteScopes(e, func(c Expr) Expr {
			visited = append(visited, c)
			repl = append(repl, &VarRef{Name: "r"})
			return repl[len(repl)-1]
		})
		if !sameExprs(visited, want) {
			t.Errorf("%T: RewriteScopes visited %d expressions, the node holds %d", e, len(visited), len(want))
		}
		var after, held []Expr
		fieldExprs(reflect.ValueOf(e).Elem(), &after)
		if !slices.Equal(after, want) {
			t.Errorf("%T: RewriteScopes modified the original", e)
		}
		if len(want) > 0 {
			fieldExprs(reflect.ValueOf(got).Elem(), &held)
			if got == e || !sameExprs(held, repl) {
				t.Errorf("%T: the copy does not hold the replacements", e)
			}
		}
	}
}

// sameExprs reports whether a and b hold the same nodes, in any order.
func sameExprs(a, b []Expr) bool {
	count := map[Expr]int{}
	for _, e := range a {
		count[e]++
	}
	for _, e := range b {
		count[e]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return len(a) == len(b)
}
