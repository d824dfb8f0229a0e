package hyracks

import (
	"context"
	"errors"
	"testing"

	"asterix/internal/mem"
)

// edgeTransport accepts every edge, refuses it with err, or — with
// cancel set — cancels the run and holds the node at its first edge
// until the run is dead. It records the working memory the governor had
// granted when the first edge opened: after the job's admission, so a
// test can tell the reservation was held.
type edgeTransport struct {
	gov      *mem.Governor
	err      error
	cancel   context.CancelFunc
	opened   bool
	heldOpen int64
}

func (t *edgeTransport) OpenEdge(ctx context.Context, _ EdgeDesc) (EdgeHandle, error) {
	if !t.opened {
		t.opened = true
		t.heldOpen = t.gov.WorkingGranted()
	}
	if t.cancel != nil {
		t.cancel()
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if t.err != nil {
		return nil, t.err
	}
	return noRemoteEdge{}, nil
}

func (t *edgeTransport) CloseJob(string) {}

// noRemoteEdge is the handle of an edge no task sends through: the
// attempts below fail before any task starts.
type noRemoteEdge struct{}

func (noRemoteEdge) Send(context.Context, int, []Tuple) error {
	return errors.New("no task sends")
}

func (noRemoteEdge) ProducerDone() error { return nil }

// TestRunReleasesAdmissionOnEveryExit fails a two-node attempt on each
// exit between the job's admission and its first task — a transport that
// cannot open an edge, a context cancelled while a node waits at the
// start barrier for one that never arrives — and checks that the
// admission was held when the attempt failed and is given back once
// RunWithRetry returns.
func TestRunReleasesAdmissionOnEveryExit(t *testing.T) {
	errRefused := errors.New("edge refused")
	cases := []struct {
		name string
		// nc1 builds node nc1's transport; nc0's accepts every edge.
		nc1  func(gov *mem.Governor, cancel context.CancelFunc) *edgeTransport
		want func(error) bool
	}{
		{
			name: "edge refused",
			nc1: func(gov *mem.Governor, _ context.CancelFunc) *edgeTransport {
				return &edgeTransport{gov: gov, err: errRefused}
			},
			want: func(err error) bool { return errors.Is(err, errRefused) },
		},
		{
			name: "cancelled before start",
			nc1: func(gov *mem.Governor, cancel context.CancelFunc) *edgeTransport {
				return &edgeTransport{gov: gov, cancel: cancel}
			},
			want: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2)
			c.Gov = mem.NewGovernor(mem.Config{WorkingBytes: 1 << 20})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			failing := tc.nc1(c.Gov, cancel)
			c.AttachTransports(map[string]Transport{"nc0": &edgeTransport{gov: c.Gov}, "nc1": failing})
			build := func(int) (*Job, error) {
				j := NewJob()
				scan := j.Add(NewScan("scan", 2, rangeScan(100)))
				sorter := j.Add(NewSort("sort", 2, Comparator{Columns: []int{0}}))
				sink := j.Add(NewFuncSink("sink", 2, func(int, Tuple) error { return nil }))
				j.MustConnect(scan, sorter, 0, HashPartition(0))
				j.MustConnect(sorter, sink, 0, OneToOne())
				return j, nil
			}
			_, err := c.RunWithRetry(ctx, build, RetryPolicy{})
			if !tc.want(err) {
				t.Fatalf("RunWithRetry = %v, want the %s failure", err, tc.name)
			}
			if failing.heldOpen == 0 {
				t.Fatalf("no working memory was granted when the attempt failed: the exit came before admission")
			}
			if got := c.Gov.WorkingGranted(); got != 0 {
				t.Errorf("after the failed attempt the governor still grants %d bytes", got)
			}
		})
	}
}
