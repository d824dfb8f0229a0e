package hyracks

import (
	"context"
	"errors"
	"strings"
	"testing"

	"asterix/internal/mem"
)

// edgeTransport accepts every edge, or refuses it with err, and records
// the working memory the governor had granted when the first edge opened —
// after the job's admission, so a test can tell the reservation was held.
type edgeTransport struct {
	gov      *mem.Governor
	err      error
	opened   bool
	heldOpen int64
}

func (t *edgeTransport) OpenEdge(context.Context, EdgeDesc) (EdgeHandle, error) {
	if !t.opened {
		t.opened = true
		t.heldOpen = t.gov.WorkingGranted()
	}
	if t.err != nil {
		return nil, t.err
	}
	return noRemoteEdge{}, nil
}

func (t *edgeTransport) CloseJob(string) {}

// noRemoteEdge is the handle of an edge every channel of which is local:
// the executor never sends through it.
type noRemoteEdge struct{}

func (noRemoteEdge) Send(context.Context, int, []Tuple) error {
	return errors.New("no remote channels")
}

func (noRemoteEdge) ProducerDone() error { return nil }

// TestRunReleasesAdmissionOnEveryExit fails Run on each exit between the
// job's admission and its first task — a placement naming a node the
// cluster does not have, a transport that cannot open an edge, a context
// cancelled at the START barrier — and checks that the admission was held
// when the run failed and is given back once Run returns.
func TestRunReleasesAdmissionOnEveryExit(t *testing.T) {
	errRefused := errors.New("edge refused")
	cases := []struct {
		name string
		// placement builds the run's placement on node nc0; held reports
		// the working memory granted at the point the run fails.
		placement func(c *Cluster, cancel context.CancelFunc) (pl *Placement, held func() int64)
		want      func(error) bool
	}{
		{
			name: "unknown node",
			placement: func(c *Cluster, _ context.CancelFunc) (*Placement, func() int64) {
				tr := &edgeTransport{gov: c.Gov}
				return &Placement{
					JobID: "admit-unknown", Node: "nc0", Transport: tr,
					Assign: func(op string, part int) string {
						if op == "sink" && part == 1 {
							return "nc9"
						}
						return "nc0"
					},
				}, func() int64 { return tr.heldOpen }
			},
			want: func(err error) bool { return err != nil && strings.Contains(err.Error(), `unknown node "nc9"`) },
		},
		{
			name: "edge refused",
			placement: func(c *Cluster, _ context.CancelFunc) (*Placement, func() int64) {
				tr := &edgeTransport{gov: c.Gov, err: errRefused}
				return &Placement{
					JobID: "admit-edge", Node: "nc0", Transport: tr,
					Assign: func(string, int) string { return "nc0" },
				}, func() int64 { return tr.heldOpen }
			},
			want: func(err error) bool { return errors.Is(err, errRefused) },
		},
		{
			name: "cancelled before start",
			placement: func(c *Cluster, cancel context.CancelFunc) (*Placement, func() int64) {
				var held int64
				return &Placement{
					JobID: "admit-start", Node: "nc0", Transport: &edgeTransport{gov: c.Gov},
					Assign: func(string, int) string { return "nc0" },
					Ready: func() {
						held = c.Gov.WorkingGranted()
						cancel()
					},
					Start: make(chan struct{}), // never opened
				}, func() int64 { return held }
			},
			want: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2)
			c.Gov = mem.NewGovernor(mem.Config{WorkingBytes: 1 << 20})
			j := NewJob()
			scan := j.Add(NewScan("scan", 2, rangeScan(100)))
			sorter := j.Add(NewSort("sort", 2, Comparator{Columns: []int{0}}))
			sink := j.Add(NewFuncSink("sink", 2, func(int, Tuple) error { return nil }))
			j.MustConnect(scan, sorter, 0, HashPartition(0))
			j.MustConnect(sorter, sink, 0, OneToOne())

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pl, held := tc.placement(c, cancel)
			j.SetPlacement(pl)
			err := c.Run(ctx, j)
			if !tc.want(err) {
				t.Fatalf("Run = %v, want the %s failure", err, tc.name)
			}
			if held() == 0 {
				t.Fatalf("no working memory was granted when the run failed: the exit came before admission")
			}
			if got := c.Gov.WorkingGranted(); got != 0 {
				t.Errorf("after the failed run the governor still grants %d bytes", got)
			}
		})
	}
}
