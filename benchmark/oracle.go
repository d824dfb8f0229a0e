package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// The oracle computes the expected rows of every op class from the generated
// data, in Go, and compares them with the "results" array of the response
// only. Nothing here reads the engine.

// Op classes. The names are part of the benchmark's contract.
const (
	classScan   = "scan"
	classGroup  = "group"
	classJoin   = "join"
	classSort   = "sort"
	classIdx    = "idx"
	classRange  = "range"
	classPK     = "pk"
	classUpsert = "upsert"
)

const (
	scanPattern = "verizon sprint tmobile"
	groupMod    = 1000
	joinLimit   = 20
	sortLimit   = 50
	rangeWidth  = 10
	rangeLimit  = 20
)

// The analytics statements are fixed; only the data depends on the seed.
var analyticsStatements = map[string]string{
	classScan: `SELECT m.messageId, m.authorId FROM GleambookMessages m ` +
		`WHERE m.message LIKE '%` + scanPattern + `%';`,
	classGroup: fmt.Sprintf(`SELECT g AS grp, COUNT(*) AS cnt FROM GleambookMessages m `+
		`GROUP BY m.authorId %% %d AS g;`, groupMod),
	classJoin: fmt.Sprintf(`SELECT u.alias AS alias, COUNT(*) AS cnt FROM GleambookUsers u, GleambookMessages m `+
		`WHERE m.authorId = u.id GROUP BY u.alias ORDER BY cnt DESC, alias ASC LIMIT %d;`, joinLimit),
	classSort: fmt.Sprintf(`SELECT m.messageId, m.message FROM GleambookMessages m `+
		`WHERE m.messageId %% 2 = 0 ORDER BY m.message DESC LIMIT %d;`, sortLimit),
}

func idxStatement(author int) string {
	return fmt.Sprintf(`SELECT m.messageId, m.message FROM GleambookMessages m WHERE m.authorId = %d;`, author)
}

func rangeStatement(author int) string {
	return fmt.Sprintf(`SELECT m.messageId, m.authorId FROM GleambookMessages m `+
		`WHERE m.authorId >= %d AND m.authorId < %d ORDER BY m.messageId LIMIT %d;`,
		author, author+rangeWidth, rangeLimit)
}

func pkStatement(id int) string {
	return fmt.Sprintf(`SELECT u.alias, u.name FROM GleambookUsers u WHERE u.id = %d;`, id)
}

// Row shapes of the result arrays.
type (
	idAuthorRow struct {
		MessageID int `json:"messageId"`
		AuthorID  int `json:"authorId"`
	}
	idTextRow struct {
		MessageID int    `json:"messageId"`
		Message   string `json:"message"`
	}
	groupRow struct {
		Grp int `json:"grp"`
		Cnt int `json:"cnt"`
	}
	aliasCountRow struct {
		Alias string `json:"alias"`
		Cnt   int    `json:"cnt"`
	}
	aliasNameRow struct {
		Alias string `json:"alias"`
		Name  string `json:"name"`
	}
	countRow struct {
		Count int `json:"count"`
	}
)

// decodeRows parses result rows strictly: a row with a missing, extra or
// mistyped field is an error.
func decodeRows[T any](results []json.RawMessage) ([]T, error) {
	rows := make([]T, len(results))
	fields := reflect.TypeOf(rows).Elem().NumField()
	for i, raw := range results {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rows[i]); err != nil {
			return nil, fmt.Errorf("row %d %s: %v", i, raw, err)
		}
		var present map[string]json.RawMessage
		if err := json.Unmarshal(raw, &present); err != nil {
			return nil, fmt.Errorf("row %d %s: %v", i, raw, err)
		}
		if len(present) != fields {
			return nil, fmt.Errorf("row %d %s: has %d fields, want %d", i, raw, len(present), fields)
		}
	}
	return rows, nil
}

func equalRows[T comparable](class string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", class, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d is %+v, want %+v", class, i, got[i], want[i])
		}
	}
	return nil
}

// Oracle holds the expected answers over the base load.
type Oracle struct {
	data     *Dataset
	byAuthor [][]int // author -> message ids, ascending
	scan     []idAuthorRow
	group    []int // group -> count
	join     []aliasCountRow
	sorted   []idTextRow
}

func matchesScan(text string) bool { return strings.Contains(text, scanPattern) }

func newOracle(d *Dataset) *Oracle {
	o := &Oracle{data: d, byAuthor: make([][]int, len(d.Users)), group: make([]int, groupMod)}
	var even []idTextRow
	for _, m := range d.Messages { // ascending ids
		o.byAuthor[m.Author] = append(o.byAuthor[m.Author], m.ID)
		o.group[m.Author%groupMod]++
		if matchesScan(m.Text) {
			o.scan = append(o.scan, idAuthorRow{m.ID, m.Author})
		}
		if m.ID%2 == 0 {
			even = append(even, idTextRow{m.ID, m.Text})
		}
	}
	sort.Slice(even, func(i, j int) bool { return even[i].Message > even[j].Message })
	o.sorted = even[:min(sortLimit, len(even))]
	for a, ids := range o.byAuthor {
		if len(ids) > 0 {
			o.join = append(o.join, aliasCountRow{d.Users[a].Alias, len(ids)})
		}
	}
	sort.Slice(o.join, func(i, j int) bool {
		if o.join[i].Cnt != o.join[j].Cnt {
			return o.join[i].Cnt > o.join[j].Cnt
		}
		return o.join[i].Alias < o.join[j].Alias
	})
	o.join = o.join[:min(joinLimit, len(o.join))]
	return o
}

// Op is one request of a workload, with what its oracle needs.
type Op struct {
	Class string
	Stmt  string
	Key   int // idx/range: author; pk: user id; upsert: records in the batch
	// For reads that run beside the htap writer: the statements acknowledged
	// before the read was sent, and those sent before its response arrived.
	AckedBefore, SentAfter int
}

// check compares the results of one op with the oracle. fresh holds, per
// write statement, the records that created a key; it is nil for workloads
// without a concurrent writer.
func (o *Oracle) check(op Op, results []json.RawMessage, fresh [][]Message) error {
	switch op.Class {
	case classScan:
		got, err := decodeRows[idAuthorRow](results)
		if err != nil {
			return err
		}
		sort.Slice(got, func(i, j int) bool { return got[i].MessageID < got[j].MessageID })
		if fresh == nil {
			return equalRows(op.Class, got, o.scan)
		}
		return o.checkScanBeside(op, got, fresh)
	case classGroup:
		got, err := decodeRows[groupRow](results)
		if err != nil {
			return err
		}
		return o.checkGroup(op, got, fresh)
	case classJoin:
		got, err := decodeRows[aliasCountRow](results)
		if err != nil {
			return err
		}
		return equalRows(op.Class, got, o.join)
	case classSort:
		got, err := decodeRows[idTextRow](results)
		if err != nil {
			return err
		}
		return equalRows(op.Class, got, o.sorted)
	case classIdx:
		got, err := decodeRows[idTextRow](results)
		if err != nil {
			return err
		}
		sort.Slice(got, func(i, j int) bool { return got[i].MessageID < got[j].MessageID })
		want := make([]idTextRow, 0, len(o.byAuthor[op.Key]))
		for _, id := range o.byAuthor[op.Key] {
			want = append(want, idTextRow{id, o.data.Messages[id].Text})
		}
		return equalRows(op.Class, got, want)
	case classRange:
		got, err := decodeRows[idAuthorRow](results)
		if err != nil {
			return err
		}
		var want []idAuthorRow
		for a := op.Key; a < op.Key+rangeWidth; a++ {
			for _, id := range o.byAuthor[a] {
				want = append(want, idAuthorRow{id, a})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].MessageID < want[j].MessageID })
		return equalRows(op.Class, got, want[:min(rangeLimit, len(want))])
	case classPK:
		got, err := decodeRows[aliasNameRow](results)
		if err != nil {
			return err
		}
		u := o.data.Users[op.Key]
		return equalRows(op.Class, got, []aliasNameRow{{u.Alias, u.Name}})
	case classUpsert:
		got, err := decodeRows[countRow](results)
		if err != nil {
			return err
		}
		return equalRows(op.Class, got, []countRow{{op.Key}})
	}
	return fmt.Errorf("no oracle for class %q", op.Class)
}

// checkGroup checks the per-group counts. Beside a writer, each count lies
// between the base count plus the keys created by statements acknowledged
// before the read began, and the base count plus the keys created by
// statements sent before it ended (overwrites keep the author, so only
// created keys move a count).
func (o *Oracle) checkGroup(op Op, got []groupRow, fresh [][]Message) error {
	lo := append([]int(nil), o.group...)
	hi := append([]int(nil), o.group...)
	for i, stmt := range fresh[:min(op.SentAfter, len(fresh))] {
		for _, m := range stmt {
			hi[m.Author%groupMod]++
			if i < op.AckedBefore {
				lo[m.Author%groupMod]++
			}
		}
	}
	seen := make([]bool, groupMod)
	for _, row := range got {
		if row.Grp < 0 || row.Grp >= groupMod || seen[row.Grp] {
			return fmt.Errorf("%s: unexpected or repeated group %d", op.Class, row.Grp)
		}
		seen[row.Grp] = true
		if row.Cnt < max(1, lo[row.Grp]) || row.Cnt > hi[row.Grp] {
			return fmt.Errorf("%s: group %d has count %d, want %d..%d", op.Class, row.Grp, row.Cnt, lo[row.Grp], hi[row.Grp])
		}
	}
	for g := range lo {
		if lo[g] > 0 && !seen[g] {
			return fmt.Errorf("%s: group %d is missing, want count %d..%d", op.Class, g, lo[g], hi[g])
		}
	}
	return nil
}

// checkScanBeside checks a scan that ran beside the writer: every matching
// key of the base load and of the statements acknowledged before the read
// began is present, and every other row is a matching key of a statement
// sent before the read ended. got is sorted by message id.
func (o *Oracle) checkScanBeside(op Op, got []idAuthorRow, fresh [][]Message) error {
	must := map[idAuthorRow]bool{}
	may := map[idAuthorRow]bool{}
	for _, row := range o.scan {
		must[row] = true
	}
	for i, stmt := range fresh[:min(op.SentAfter, len(fresh))] {
		for _, m := range stmt {
			if !matchesScan(m.Text) {
				continue
			}
			if i < op.AckedBefore {
				must[idAuthorRow{m.ID, m.Author}] = true
			} else {
				may[idAuthorRow{m.ID, m.Author}] = true
			}
		}
	}
	found := 0
	for i, row := range got {
		if i > 0 && got[i-1].MessageID == row.MessageID {
			return fmt.Errorf("%s: message %d returned twice", op.Class, row.MessageID)
		}
		switch {
		case must[row]:
			found++
		case !may[row]:
			return fmt.Errorf("%s: unexpected row %+v", op.Class, row)
		}
	}
	if found != len(must) {
		return fmt.Errorf("%s: %d of %d expected rows present", op.Class, found, len(must))
	}
	return nil
}

// digest fingerprints a results array byte for byte; unordered classes are
// sorted first. analytics_mem and analytics_spill must produce the same
// digests for the same seed.
func digest(class string, results []json.RawMessage) string {
	rows := make([]string, len(results))
	for i, r := range results {
		rows[i] = string(r)
	}
	if class == classScan || class == classGroup {
		sort.Strings(rows)
	}
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
