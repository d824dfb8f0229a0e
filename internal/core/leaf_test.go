package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The leaf reads fields out of whatever its source holds: compressed stored
// bytes (unpacked only when a field is read), raw ones, and the values an
// external dataset's adapter parses — behind a scan and behind every kind
// of index search, with the residual filter applied in the leaf. Each must
// answer like the unoptimized engine, which filters in a select above a
// whole-record scan.
func TestLeafOverEverySource(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "accesses.txt")
	var log strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&log, "10.0.0.%d|user%03d|%d\n", i, i%9, 100+i)
	}
	if err := os.WriteFile(logPath, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	on := newEngine(t, Config{Compression: true})
	off := newEngine(t, unoptimized(Config{Compression: true}))
	pad := strings.Repeat("compressible padding ", 12) // past compressMin: these records are stored deflated
	for _, e := range []*Engine{on, off} {
		mustExec(t, e, fmt.Sprintf(`
			CREATE TYPE DocType AS {id: int, grp: int, body: string};
			CREATE DATASET Docs(DocType) PRIMARY KEY id;
			CREATE INDEX docGrp ON Docs(grp);
			CREATE INDEX docLoc ON Docs(loc) TYPE RTREE;
			CREATE INDEX docBody ON Docs(body) TYPE KEYWORD;
			CREATE TYPE HitType AS CLOSED {ip: string, user: string, size: int32};
			CREATE EXTERNAL DATASET Hits(HitType) USING localfs
				(("path"="localhost://%s"), ("format"="delimited-text"), ("delimiter"="|"));`, logPath))
		var sb strings.Builder
		sb.WriteString(`UPSERT INTO Docs ([`)
		for i := 0; i < 120; i++ {
			body, tag := "short", ""
			if i%2 == 0 {
				body = pad + fmt.Sprintf("word%d", i%5)
			}
			if i%3 == 0 {
				tag = fmt.Sprintf(`, "tag": "t%d"`, i%4)
			}
			fmt.Fprintf(&sb, `{"id": %d, "grp": %d, "body": "%s", "loc": point(%d, %d)%s},`, i, i%10, body, i%12, i%7, tag)
		}
		mustExec(t, e, strings.TrimSuffix(sb.String(), ",")+`]);`)
		if err := e.Checkpoint(); err != nil { // half the answers come from disk components
			t.Fatal(err)
		}
		mustExec(t, e, `UPSERT INTO Docs ({"id": 500, "grp": 3, "body": "`+pad+`word3", "loc": point(3, 3), "tag": "t1"});`)
	}
	for _, c := range []struct{ q, plan string }{
		{`SELECT VALUE COUNT(*) FROM Docs d;`, "scan(Docs as d) fields=[]"},
		{`SELECT VALUE COUNT(*) FROM Docs d WHERE d.grp % 3 = 1;`, "fields=[grp] filter="},
		{`SELECT d.id AS id, d.tag AS tag FROM Docs d WHERE d.body LIKE "%word3";`, "scan(Docs as d) fields=[body, id, tag] filter="},
		{`SELECT VALUE d.id FROM Docs d WHERE d.tag IS MISSING AND d.id < 30;`, "index-search(Docs.id PRIMARY as d)"},
		{`SELECT VALUE d FROM Docs d WHERE d.id = 500;`, "index-search(Docs.id PRIMARY as d) range=[500..500] filter="},
		{`SELECT d.id AS id, d.body AS body FROM Docs d WHERE d.grp = 3 AND d.tag = "t1";`, "index-search(Docs.grp BTREE as d) range=[3..3] fields=[body, grp, id, tag] filter="},
		{`SELECT VALUE d.id FROM Docs d WHERE spatial_intersect(d.loc, create_rectangle(2.0, 2.0, 5.0, 4.0)) AND d.tag != "t2";`, "index-search(Docs.loc RTREE as d)"},
		{`SELECT VALUE d.id FROM Docs d WHERE ftcontains(d.body, "word2") AND d.id % 4 = 2;`, "index-search(Docs.body KEYWORD as d)"},
		{`SELECT h.user AS u, h.size AS size FROM Hits h WHERE h.size % 4 = 0 AND h.user != "user003";`, "scan(Hits as h) fields=[size, user] filter="},
		{`SELECT VALUE h FROM Hits h WHERE h.size > 130;`, "scan(Hits as h) filter="},
		{`SELECT VALUE COUNT(*) FROM Hits h;`, "scan(Hits as h) fields=[]"},
	} {
		r, err := on.Query(context.Background(), c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if !strings.Contains(r.PlanText(), c.plan) || strings.Contains(r.PlanText(), "select") {
			t.Errorf("%s: plan\n%swant a leaf %q and no select", c.q, r.PlanText(), c.plan)
		}
		got, want := sortedRows(t, on, c.q), sortedRows(t, off, c.q)
		if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: optimized\n%s\nnaive\n%s", c.q, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// A filter that fails on some rows fails the statement with the same error
// whether a select or the leaf runs it: conjuncts keep their order, and an
// unknown left operand does not stop AND from evaluating the right one.
func TestLeafFilterErrorsLikeSelect(t *testing.T) {
	engines := map[string]*Engine{
		"optimized":        newEngine(t, Config{}),
		"naive":            newEngine(t, unoptimized(Config{})),
		"no filter motion": newEngine(t, Config{OptimizerDisable: []string{"push-select"}}),
	}
	for _, e := range engines {
		seedEquivData(t, e)
	}
	for q, want := range map[string]string{
		// topic is missing on two rows in three: there AND goes on to the division.
		`SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.topic = "nope" AND m.message / 2 = 1;`: "cannot apply / to string and int64",
		`SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.messageId < 5 AND -m.message = 1;`:     "cannot negate string",
		// No row gets past the first conjunct: no error.
		`SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.messageId < 0 AND m.message / 2 = 1;`: "",
	} {
		for name, e := range engines {
			_, err := e.Query(context.Background(), q)
			if (err == nil) != (want == "") || err != nil && !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%s: %s engine: %v, want an error ending in %q", q, name, err, want)
			}
		}
	}
}
