package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"asterix/internal/adm"
)

// The generators are copies of internal/experiments' Gleambook generators
// (the paper's Figure 3 schema), kept here so that the benchmark's load does
// not change when the experiments do. They produce plain Go values first:
// the oracles read those, and the engine only ever sees the records and
// statements rendered from them, never the seed or a workload name.

// gleambookDDL is the Figure 3(a) schema.
const gleambookDDL = `
CREATE TYPE EmploymentType AS {
	organizationName: string,
	startDate: date,
	endDate: date?
};
CREATE TYPE GleambookUserType AS {
	id: int,
	alias: string,
	name: string,
	userSince: datetime,
	friendIds: {{ int }},
	employment: [EmploymentType]
};
CREATE TYPE GleambookMessageType AS {
	messageId: int,
	authorId: int,
	inResponseTo: int?,
	senderLocation: point?,
	message: string
};
CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id;
CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;
`

const (
	authorIndexDDL   = `CREATE INDEX msgAuthorIdx ON GleambookMessages(authorId);`
	locationIndexDDL = `CREATE INDEX msgLocIdx ON GleambookMessages(senderLocation) TYPE RTREE;`
	keywordIndexDDL  = `CREATE INDEX msgTextIdx ON GleambookMessages(message) TYPE KEYWORD;`
)

// User is one GleambookUsers record.
type User struct {
	ID        int
	Alias     string
	Name      string
	Since     string
	Friends   []int
	Org       string
	StartDate string
}

// Message is one version of a GleambookMessages record. Reply is the
// inResponseTo field, -1 when absent.
type Message struct {
	ID     int
	Author int
	Text   string
	HasLoc bool
	X, Y   float64
	Reply  int
}

func genUser(i, nUsers int, r *rand.Rand) User {
	u := User{
		ID:        i,
		Alias:     fmt.Sprintf("user%06d", i),
		Name:      fmt.Sprintf("Gleambook User %d", i),
		Since:     fmt.Sprintf("%d-0%d-01T00:00:00", 2010+i%9, 1+i%9),
		Friends:   make([]int, r.Intn(8)),
		Org:       fmt.Sprintf("Org%d", i%100),
		StartDate: fmt.Sprintf("%d-06-01", 2005+i%14),
	}
	for f := range u.Friends {
		u.Friends[f] = r.Intn(nUsers)
	}
	return u
}

var topicWords = []string{"verizon", "sprint", "tmobile", "iphone", "pixel",
	"plan", "signal", "coverage", "battery", "speed", "price", "support"}

func messageText(i int, r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("message ")
	n := 3 + r.Intn(8)
	for w := 0; w < n; w++ {
		sb.WriteString(topicWords[r.Intn(len(topicWords))])
		sb.WriteByte(' ')
	}
	sb.WriteString("num")
	sb.WriteString(strconv.Itoa(i))
	return sb.String()
}

// genLocation draws a point with four decimals, so that its SQL++ literal
// parses back to the same float64.
func genLocation(r *rand.Rand) (x, y float64) {
	return float64(r.Intn(3600001))/10000 - 180, float64(r.Intn(1800001))/10000 - 90
}

// genMessage produces a message; every other one carries a location.
func genMessage(i, nUsers int, r *rand.Rand) Message {
	m := Message{ID: i, Author: r.Intn(nUsers), Text: messageText(i, r), Reply: -1}
	if i%2 == 0 {
		m.HasLoc = true
		m.X, m.Y = genLocation(r)
	}
	return m
}

func (u User) object() (*adm.Object, error) {
	since, err := adm.ParseDatetime(u.Since)
	if err != nil {
		return nil, err
	}
	start, err := adm.ParseDate(u.StartDate)
	if err != nil {
		return nil, err
	}
	friends := make(adm.Multiset, len(u.Friends))
	for i, f := range u.Friends {
		friends[i] = adm.Int64(f)
	}
	return adm.NewObject(
		adm.Field{Name: "id", Value: adm.Int64(u.ID)},
		adm.Field{Name: "alias", Value: adm.String(u.Alias)},
		adm.Field{Name: "name", Value: adm.String(u.Name)},
		adm.Field{Name: "userSince", Value: since},
		adm.Field{Name: "friendIds", Value: friends},
		adm.Field{Name: "employment", Value: adm.Array{adm.NewObject(
			adm.Field{Name: "organizationName", Value: adm.String(u.Org)},
			adm.Field{Name: "startDate", Value: start},
		)}},
	), nil
}

func (m Message) object() *adm.Object {
	o := adm.NewObject(
		adm.Field{Name: "messageId", Value: adm.Int64(m.ID)},
		adm.Field{Name: "authorId", Value: adm.Int64(m.Author)},
		adm.Field{Name: "message", Value: adm.String(m.Text)},
	)
	if m.Reply >= 0 {
		o.Set("inResponseTo", adm.Int64(m.Reply))
	}
	if m.HasLoc {
		o.Set("senderLocation", adm.Point{X: m.X, Y: m.Y})
	}
	return o
}

// literal appends the record as a SQL++ object constructor. Message texts
// are made of [a-z0-9 ] only, so they need no escaping.
func (m Message) literal(sb *strings.Builder) {
	sb.WriteString(`{"messageId":`)
	sb.WriteString(strconv.Itoa(m.ID))
	sb.WriteString(`,"authorId":`)
	sb.WriteString(strconv.Itoa(m.Author))
	sb.WriteString(`,"message":"`)
	sb.WriteString(m.Text)
	sb.WriteByte('"')
	if m.Reply >= 0 {
		sb.WriteString(`,"inResponseTo":`)
		sb.WriteString(strconv.Itoa(m.Reply))
	}
	if m.HasLoc {
		sb.WriteString(`,"senderLocation":point(`)
		sb.WriteString(strconv.FormatFloat(m.X, 'f', -1, 64))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(m.Y, 'f', -1, 64))
		sb.WriteByte(')')
	}
	sb.WriteByte('}')
}

// literal appends the user as a SQL++ object constructor.
func (u User) literal(sb *strings.Builder) {
	fmt.Fprintf(sb, `{"id":%d,"alias":"%s","name":"%s","userSince":datetime("%s"),"friendIds":{{`,
		u.ID, u.Alias, u.Name, u.Since)
	for i, f := range u.Friends {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(f))
	}
	fmt.Fprintf(sb, `}},"employment":[{"organizationName":"%s","startDate":date("%s")}]}`, u.Org, u.StartDate)
}

// userBytes is the benchmark's measure of user data: the length of the
// records as SQL++ literals, the bytes a client sends to store them. It does
// not depend on the engine's storage format, so bytes stored or logged per
// user byte stay comparable when that format changes.
func userBytes[T interface{ literal(*strings.Builder) }](recs []T) int64 {
	var sb strings.Builder
	var n int64
	for _, r := range recs {
		sb.Reset()
		r.literal(&sb)
		n += int64(sb.Len())
	}
	return n
}

// Dataset is the load every workload starts from.
type Dataset struct {
	Users    []User
	Messages []Message
}

// subSeed derives independent streams (data, each client, the writer) from
// the one seed the benchmark was given.
func subSeed(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

const (
	streamData = iota
	streamWriter
	streamProbe
	streamClient // + client index
)

func genDataset(seed int64, users, messages int) *Dataset {
	r := subSeed(seed, streamData)
	d := &Dataset{Users: make([]User, users), Messages: make([]Message, messages)}
	for i := range d.Users {
		d.Users[i] = genUser(i, users, r)
	}
	for i := range d.Messages {
		d.Messages[i] = genMessage(i, users, r)
	}
	return d
}

// Writer generates the write stream of the ingest and htap workloads:
// batches of records, four fifths with fresh ascending keys and one fifth
// overwriting a key it wrote earlier, skewed to recent keys. An overwrite
// keeps author and text and changes inResponseTo and the location, so every
// secondary index gets an antimatter entry while the answers of the read
// classes depend only on which keys exist.
type Writer struct {
	r      *rand.Rand
	nUsers int
	first  int       // lowest key the writer owns
	last   []Message // latest version of key first+i
	// Stmts records, per statement issued, the records in it that created a
	// key (the htap oracle needs them).
	Stmts [][]Message
}

func newWriter(seed int64, nUsers, firstKey int) *Writer {
	return &Writer{r: subSeed(seed, streamWriter), nUsers: nUsers, first: firstKey}
}

// Records returns the latest version of every key written so far.
func (w *Writer) Records() []Message { return w.last }

// batch draws the next n records; keys are distinct within a batch.
func (w *Writer) batch(n int) []Message {
	recs := make([]Message, 0, n)
	var fresh []Message
	written := len(w.last) // overwrites pick among keys of earlier batches
	overwritten := map[int]bool{}
	for len(recs) < n {
		if written > 0 && w.r.Intn(5) == 0 {
			// Exponentially distributed distance back from the newest key:
			// mean 1000 keys.
			idx := written - 1 - int(w.r.ExpFloat64()*1000)%written
			if overwritten[idx] {
				continue
			}
			overwritten[idx] = true
			m := w.last[idx]
			m.Reply = w.r.Intn(w.first + written)
			if m.HasLoc {
				m.X, m.Y = genLocation(w.r)
			}
			w.last[idx] = m
			recs = append(recs, m)
			continue
		}
		m := genMessage(w.first+len(w.last), w.nUsers, w.r)
		w.last = append(w.last, m)
		recs = append(recs, m)
		fresh = append(fresh, m)
	}
	w.Stmts = append(w.Stmts, fresh)
	return recs
}

const upsertPrefix, upsertSuffix = "UPSERT INTO GleambookMessages ([", "]);"

// upsertStatement renders a batch as one SQL++ UPSERT and returns it with
// the user bytes in it (the literals without the statement around them).
func upsertStatement(recs []Message) (stmt string, bytes int64) {
	var sb strings.Builder
	sb.Grow(len(recs) * 160)
	sb.WriteString(upsertPrefix)
	for i, m := range recs {
		if i > 0 {
			sb.WriteByte(',')
		}
		m.literal(&sb)
	}
	sb.WriteString(upsertSuffix)
	return sb.String(), int64(sb.Len() - len(upsertPrefix) - len(upsertSuffix) - (len(recs) - 1))
}
