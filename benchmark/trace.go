package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"asterix/internal/core"
	"asterix/internal/obs"
	"asterix/internal/server"
)

// Spans are recorded from the benchmark's own files only, around the calls
// into each layer: the client around the HTTP round trip, a handler wrapped
// around server.NewHandler, and a server.Engine wrapped around
// core.Engine.Execute. The three spans of one request share its id, which
// travels in the X-Bench-Req header and then in the request context.

const (
	spanClient  = "client.request"
	spanHandler = "server.handler"
	spanExecute = "core.Execute"

	reqHeader = "X-Bench-Req"
)

// spanParent is the span that causes each span.
var spanParent = map[string]string{spanHandler: spanClient, spanExecute: spanHandler}

// Span is one timed interval; times are nanoseconds since the tracer began.
type Span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) record(name string, req int64, start, end time.Time) {
	s := Span{Name: name, Req: req, Parent: spanParent[name],
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as one JSON document.
func (t *Tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per request and span name, the span's duration minus
// the part of it that its child spans cover. Children are the spans of the
// same request that name the span as their parent; overlapping children are
// counted once.
func selfTimes(spans []Span) map[int64]map[string]time.Duration {
	byReq := map[int64][]Span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	out := make(map[int64]map[string]time.Duration, len(byReq))
	for req, group := range byReq {
		self := make(map[string]time.Duration, len(group))
		for _, s := range group {
			var kids []Span
			for _, c := range group {
				if c.Parent == s.Name {
					kids = append(kids, c)
				}
			}
			sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
			covered, upTo := int64(0), s.Start
			for _, c := range kids {
				lo, hi := max(c.Start, upTo), min(c.End, s.End)
				if hi > lo {
					covered += hi - lo
					upTo = hi
				}
			}
			self[s.Name] += time.Duration(s.End - s.Start - covered)
		}
		out[req] = self
	}
	return out
}

// durations returns, per request, the length of its span of the given name.
func durations(spans []Span, name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Req] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

type reqIDKey struct{}

// tracedHandler is the benchmark's handler around the server's.
type tracedHandler struct {
	next   http.Handler
	tracer *Tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	if err != nil {
		http.Error(w, "traced listener: missing "+reqHeader, http.StatusBadRequest)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
	h.tracer.record(spanHandler, id, start, time.Now())
}

// tracedEngine is the benchmark's server.Engine around the engine's
// Execute. It forwards the metrics registry so that the server behaves as
// it does over the bare engine.
type tracedEngine struct {
	eng    *core.Engine
	tracer *Tracer
}

var (
	_ server.Engine          = tracedEngine{}
	_ server.MetricsProvider = tracedEngine{}
)

func (e tracedEngine) Metrics() *obs.Registry { return e.eng.Metrics() }

func (e tracedEngine) Execute(ctx context.Context, script string) ([]core.Result, error) {
	id, _ := ctx.Value(reqIDKey{}).(int64) // set by tracedHandler on every request
	start := time.Now()
	res, err := e.eng.Execute(ctx, script)
	e.tracer.record(spanExecute, id, start, time.Now())
	return res, err
}
