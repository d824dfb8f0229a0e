// Package multirule pins the suppression semantics for lines carrying
// findings from more than one rule: the comma form names both rules in
// one directive, and a stack of single-rule directives chains down so
// every directive in the stack reaches the statement below it.
package multirule

import "context"

type Store struct{}

func (s *Store) Put(ctx context.Context, key string) error {
	_, _ = ctx, key
	return nil
}

// Unsuppressed control: both rules fire on the put line.
func control(ctx context.Context, s *Store) {
	s.Put(context.Background(), "k") // WANT err-discard ctx-flow
}

// One directive, two rules, comma-separated.
func commaForm(ctx context.Context, s *Store) {
	//lint:ignore err-discard,ctx-flow fixture: both rules on one line
	s.Put(context.Background(), "k")
}

// Two stacked single-rule directives both reach the statement below
// the stack — previously only the bottom directive applied.
func stacked(ctx context.Context, s *Store) {
	//lint:ignore err-discard fixture: best-effort write
	//lint:ignore ctx-flow fixture: detached by design
	s.Put(context.Background(), "k")
}
