// Package feed implements the Couchbase-Analytics-style shadow-ingest
// pipeline of the paper's Figure 7: an operational key-value front end (a
// stand-in for the Couchbase Data Service) whose ordered mutation stream
// (a DCP analogue) continuously feeds shadow datasets in the analytics
// engine, so analysts can "have their data and query it too" with
// performance isolation between the two sides.
package feed

import (
	"context"
	"fmt"
	"sync"

	"asterix/internal/adm"
)

// Mutation is one ordered change from the KV store.
type Mutation struct {
	Seq     int64
	Key     string
	Doc     *adm.Object // nil when Deleted
	Deleted bool
}

// KVStore is a tiny operational document store with an ordered,
// replayable change stream. Mutations are retained in a log that streams
// cursor over; writers never block on slow consumers (they only tap a
// non-blocking notification), preserving the front end's latency
// independence — the isolation property Figure 7 is about.
type KVStore struct {
	mu     sync.Mutex
	docs   map[string]*adm.Object
	log    []Mutation // retained change history (DCP backfill + live)
	notify []chan struct{}

	// Ops counts front-end operations (isolation experiment metric).
	Ops int64
}

// NewKVStore creates an empty store.
func NewKVStore() *KVStore {
	return &KVStore{docs: map[string]*adm.Object{}}
}

// wake taps every stream's notifier without blocking (caller holds mu).
func (s *KVStore) wake() {
	for _, ch := range s.notify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Set stores a document and appends the mutation to the stream.
func (s *KVStore) Set(key string, doc *adm.Object) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Ops++
	s.docs[key] = doc
	m := Mutation{Seq: int64(len(s.log)) + 1, Key: key, Doc: doc}
	s.log = append(s.log, m)
	s.wake()
	return m.Seq
}

// Delete removes a document.
func (s *KVStore) Delete(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Ops++
	delete(s.docs, key)
	m := Mutation{Seq: int64(len(s.log)) + 1, Key: key, Deleted: true}
	s.log = append(s.log, m)
	s.wake()
	return m.Seq
}

// Get reads a document (front-end read path).
func (s *KVStore) Get(key string) (*adm.Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Ops++
	d, ok := s.docs[key]
	return d, ok
}

// Seq returns the current stream position.
func (s *KVStore) Seq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.log))
}

// Stream returns a channel replaying mutations after fromSeq and then
// delivering live changes (the DCP protocol shape): a cursor over the
// retained log, woken by writers. The channel is closed when ctx is done.
func (s *KVStore) Stream(ctx context.Context, fromSeq int64) <-chan Mutation {
	out := make(chan Mutation, 256)
	wake := make(chan struct{}, 1)
	s.mu.Lock()
	s.notify = append(s.notify, wake)
	s.mu.Unlock()

	go func() {
		defer close(out)
		defer func() {
			s.mu.Lock()
			for i, ch := range s.notify {
				if ch == wake {
					s.notify = append(s.notify[:i], s.notify[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
		}()
		next := fromSeq // mutations with Seq > next are pending
		for {
			s.mu.Lock()
			var batch []Mutation
			if int64(len(s.log)) > next {
				batch = append(batch, s.log[next:]...)
			}
			s.mu.Unlock()
			for _, m := range batch {
				select {
				case out <- m:
				case <-ctx.Done():
					return
				}
			}
			next += int64(len(batch))
			if len(batch) == 0 {
				select {
				case <-wake:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}

// Sink is where shadowed mutations land (implemented by the analytics
// engine).
type Sink interface {
	Upsert(dataset string, rec *adm.Object) error
	Delete(dataset string, pk ...adm.Value) error
}

// ShadowLink continuously applies a KV store's mutation stream to a
// shadow dataset in the analytics engine.
type ShadowLink struct {
	Store   *KVStore
	Sink    Sink
	Dataset string
	// PKField is the document field holding the primary key; when the
	// document lacks it, the KV key is injected as a string.
	PKField string

	mu      sync.Mutex
	applied int64
}

// Applied returns the last applied sequence number (ingest progress).
func (l *ShadowLink) Applied() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied
}

// Lag returns how many mutations the shadow is behind the store.
func (l *ShadowLink) Lag() int64 { return l.Store.Seq() - l.Applied() }

// Run consumes the stream until ctx is done (or an apply error).
func (l *ShadowLink) Run(ctx context.Context, fromSeq int64) error {
	if l.PKField == "" {
		l.PKField = "id"
	}
	for m := range l.Store.Stream(ctx, fromSeq) {
		if err := l.apply(m); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// CatchUp applies everything currently in the stream and returns (batch
// mode, used by tests and benches).
func (l *ShadowLink) CatchUp(ctx context.Context) error {
	if l.PKField == "" {
		l.PKField = "id"
	}
	target := l.Store.Seq()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for m := range l.Store.Stream(cctx, l.Applied()) {
		if err := l.apply(m); err != nil {
			return err
		}
		if m.Seq >= target {
			return nil
		}
	}
	return nil
}

func (l *ShadowLink) apply(m Mutation) error {
	if m.Deleted {
		if err := l.Sink.Delete(l.Dataset, adm.String(m.Key)); err != nil {
			return fmt.Errorf("feed: shadow delete %q: %w", m.Key, err)
		}
	} else {
		// The shadow dataset is keyed by the KV key (deletions in the
		// stream carry only the key), so the key always overwrites the
		// primary-key field.
		doc := adm.NewObject(m.Doc.Fields()...)
		doc.Set(l.PKField, adm.String(m.Key))
		if err := l.Sink.Upsert(l.Dataset, doc); err != nil {
			return fmt.Errorf("feed: shadow upsert %q: %w", m.Key, err)
		}
	}
	l.mu.Lock()
	if m.Seq > l.applied {
		l.applied = m.Seq
	}
	l.mu.Unlock()
	return nil
}
