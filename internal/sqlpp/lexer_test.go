package sqlpp_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"asterix/internal/sqlpp"
)

// corpusSeeds returns every statement of testdata/corpus/*.sql and every
// input of FuzzSQLPPParse's corpus.
func corpusSeeds(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob("testdata/corpus/*.sql")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus files: %v %v", files, err)
	}
	var out []string
	for _, f := range files {
		out = append(out, readCorpus(t, f)...)
	}
	fuzz, err := filepath.Glob("testdata/fuzz/FuzzSQLPPParse/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fuzz {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// lexAll returns every token of src up to end of input, or the first error.
func lexAll(next func() (sqlpp.Token, error)) ([]sqlpp.Token, error) {
	var toks []sqlpp.Token
	for {
		tok, err := next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, tok)
		if tok.Kind == sqlpp.TokEOF {
			return toks, nil
		}
	}
}

// FuzzLexerMatchesReference holds the lexer to the one it replaced: for any
// input, both give the same tokens (kind, text, offset, line) and the same
// error (message and line).
func FuzzLexerMatchesReference(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(s)
	}
	for _, s := range []string{``, "\x00\xff SELECT", `-- c`, `/* x`, `'a\'b\"c\\d\ne'`, `"x\q"`, "\"a\nb\"", `select Point ÀB`,
		`a<=b>=c!=d<>e||f{{g}}h<i>j=k`, `1.5e+3 2E-1 .5 3. 4e`, "`q id` `open", `{"a":{"b":1}}`, `'unterminated\`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := lexAll(sqlpp.NewLexer(src).Next)
		want, werr := lexAll(sqlpp.NewRefLexer(src).Next)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tokens of %q:\n got %v\nwant %v", src, got, want)
		}
		var g, w *sqlpp.SyntaxError
		if (gerr == nil) != (werr == nil) || gerr != nil && (!errors.As(gerr, &g) || !errors.As(werr, &w) || *g != *w) {
			t.Fatalf("error of %q: got %v, want %v", src, gerr, werr)
		}
	})
}

// goldenExtras are statements the corpus lacks: the benchmark's ingest
// shape, escaped literals, and the operators the parser dispatches on.
var goldenExtras = []string{
	upsertStatement(3),
	`SELECT VALUE ['it''s', "tab\there", 'q\'', "\u", 'a\/b', "line\\n"];`,
	`SELECT VALUE [1 <> 2, 1 != 2, 1 <= 2, 1 >= 2, 1 < 2, 1 > 2, 1 = 2, "a" || "b", -1 - +2 * 3 / 4 % 5];`,
	`SELECT VALUE {"a": {"b": {{1, 2}}}};`,
	`SELECT VALUE x.a[0].b FROM [{"a": [{"b": 1}]}] AS x WHERE x.a IS NOT MISSING AND x NOT IN [1] AND 1 NOT BETWEEN 2 AND 3 AND "s" NOT LIKE "t%";`,
	`CREATE EXTERNAL DATASET E(T) USING localfs (("path"="localhost:///tmp/x"), ("format"="delimited-text"));`,
	`LOAD DATASET D USING localfs (("path"="localhost:///tmp/x"));`,
}

// TestParseMatchesGolden checks the AST of every corpus statement, byte for
// byte, against testdata/ast.golden, which was recorded by the parser as it
// stood before tokens became spans of the source.
func TestParseMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/ast.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := dumpScripts(t)
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("ast.golden differs at line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("ast.golden differs in length: got %d lines, want %d", len(g), len(w))
}

// dumpScripts parses every corpus statement and every golden extra and
// dumps each AST, or the error.
func dumpScripts(t testing.TB) string {
	files, err := filepath.Glob("testdata/corpus/*.sql")
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for _, f := range files {
		srcs = append(srcs, readCorpus(t, f)...)
	}
	var sb strings.Builder
	for _, src := range append(srcs, goldenExtras...) {
		fmt.Fprintf(&sb, "== %q\n", src)
		stmts, err := sqlpp.ParseScript(src)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
			continue
		}
		dumpValue(&sb, reflect.ValueOf(stmts), 0)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// dumpValue writes v deterministically: types by name, pointers followed,
// map keys sorted, floats exact.
func dumpValue(sb *strings.Builder, v reflect.Value, depth int) {
	indent := strings.Repeat("  ", depth)
	switch v.Kind() {
	case reflect.Invalid:
		sb.WriteString("<nil>")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			sb.WriteString("nil")
			return
		}
		if v.Kind() == reflect.Pointer {
			sb.WriteByte('&')
		}
		dumpValue(sb, v.Elem(), depth)
	case reflect.Struct:
		fmt.Fprintf(sb, "%s{", v.Type())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(sb, "\n%s  %s: ", indent, v.Type().Field(i).Name)
			dumpValue(sb, v.Field(i), depth+1)
		}
		if v.NumField() > 0 {
			sb.WriteString("\n" + indent)
		}
		sb.WriteByte('}')
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			fmt.Fprintf(sb, "%s(nil)", v.Type())
			return
		}
		fmt.Fprintf(sb, "%s[", v.Type())
		for i := 0; i < v.Len(); i++ {
			sb.WriteString("\n" + indent + "  ")
			dumpValue(sb, v.Index(i), depth+1)
		}
		if v.Len() > 0 {
			sb.WriteString("\n" + indent)
		}
		sb.WriteByte(']')
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		fmt.Fprintf(sb, "%s{", v.Type())
		for _, k := range keys {
			fmt.Fprintf(sb, "\n%s  %q: ", indent, k.String())
			dumpValue(sb, v.MapIndex(k), depth+1)
		}
		sb.WriteByte('}')
	case reflect.String:
		fmt.Fprintf(sb, "%s(%q)", v.Type(), v.String())
	case reflect.Bool:
		fmt.Fprintf(sb, "%s(%t)", v.Type(), v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(sb, "%s(%d)", v.Type(), v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(sb, "%s(%d)", v.Type(), v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(sb, "%s(%s)", v.Type(), strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		fmt.Fprintf(sb, "<%s>", v.Kind())
	}
}

// upsertStatement renders n Gleambook messages as one UPSERT, in the shape
// of the repository benchmark's ingest workload: every other record has a
// location, every fifth an inResponseTo, and texts need no escaping.
func upsertStatement(n int) string {
	words := strings.Fields("verizon sprint tmobile iphone pixel plan signal coverage battery speed price support")
	r := rand.New(rand.NewSource(1))
	var sb strings.Builder
	sb.WriteString("UPSERT INTO GleambookMessages ([")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"messageId":%d,"authorId":%d,"message":"message `, 100000+i, r.Intn(20000))
		for w := 3 + r.Intn(8); w > 0; w-- {
			sb.WriteString(words[r.Intn(len(words))] + " ")
		}
		fmt.Fprintf(&sb, `num%d"`, 100000+i)
		if i%5 == 4 {
			fmt.Fprintf(&sb, `,"inResponseTo":%d`, r.Intn(100000))
		}
		if i%2 == 0 {
			fmt.Fprintf(&sb, `,"senderLocation":point(%s,%s)`,
				strconv.FormatFloat(float64(r.Intn(3600001))/10000-180, 'f', -1, 64),
				strconv.FormatFloat(float64(r.Intn(1800001))/10000-90, 'f', -1, 64))
		}
		sb.WriteByte('}')
	}
	sb.WriteString("]);")
	return sb.String()
}

// BenchmarkParseUpsert parses a 20-record ingest UPSERT; it reports ns/op,
// allocs/op and ns per token.
func BenchmarkParseUpsert(b *testing.B) {
	src := upsertStatement(20)
	toks, err := lexAll(sqlpp.NewLexer(src).Next)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlpp.ParseScript(src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(toks)), "ns/token")
}

// TestLexerAllocations: lexing a statement whose literals have no escapes
// allocates nothing; every token is a span of the statement or a keyword's
// canonical text.
func TestLexerAllocations(t *testing.T) {
	for _, src := range []string{
		upsertStatement(20),
		`SELECT VALUE {'a': u.name, "b": [1, 2.5e3]} FROM GleambookUsers u WHERE u.id <= 10 AND u.alias <> "x" OR u.friendIds IS NOT NULL -- c
		 ORDER BY u.id DESC LIMIT 3;`,
	} {
		if n := testing.AllocsPerRun(10, func() {
			lx := sqlpp.NewLexer(src)
			for {
				tok, err := lx.Next()
				if err != nil {
					t.Fatal(err)
				}
				if tok.Kind == sqlpp.TokEOF {
					return
				}
			}
		}); n != 0 {
			t.Errorf("lexing %.40q… allocates %v times per run, want 0", src, n)
		}
	}
}
