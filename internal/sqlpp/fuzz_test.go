package sqlpp

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// readCorpus reads one of the statement files under
// internal/sqlpp/testdata/corpus, which the tests of several packages
// share: statements are separated by blank lines, and a line starting with
// "--" (always directly above a statement) is a comment.
func readCorpus(t testing.TB, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`(?m)^--.*\n`).ReplaceAllString(string(data), "")
	return strings.Split(strings.TrimSpace(text), "\n\n")
}

// FuzzSQLPPParse checks that the parser never panics: any input must
// either parse or return an error. The seeds cover every statement kind
// plus inputs shaped like past robustness bugs (unterminated strings,
// deep nesting, stray operators).
func FuzzSQLPPParse(f *testing.F) {
	for _, s := range readCorpus(f, "testdata/corpus/fuzz_seeds.sql") {
		f.Add(s)
	}
	for _, s := range []string{``, "\x00\xff SELECT", `-- line comment`} { // what a text file cannot hold
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// The contract under fuzz is "no panic": errors are expected on
		// arbitrary input, results are not inspected.
		stmts, err := ParseScript(src)
		_ = stmts
		_ = err
	})
}
