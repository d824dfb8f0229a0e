package adm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// ParseJSON parses a JSON text (with the ADM extension of {{ ... }}
// multiset literals) into a Value. Numbers without a fraction or exponent
// become Int64; others become Double.
func ParseJSON(data []byte) (Value, error) {
	p := &jsonParser{data: data}
	p.skipWS()
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos != len(p.data) {
		return nil, p.errf("trailing data at offset %d", p.pos)
	}
	return v, nil
}

// MustParseJSON is ParseJSON that panics on error; for tests and literals.
func MustParseJSON(data string) Value {
	v, err := ParseJSON([]byte(data))
	if err != nil {
		panic(err)
	}
	return v
}

type jsonParser struct {
	data []byte
	pos  int
}

func (p *jsonParser) errf(format string, args ...any) error {
	return fmt.Errorf("adm: json parse: "+format, args...)
}

func (p *jsonParser) skipWS() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsonParser) peek() byte {
	if p.pos < len(p.data) {
		return p.data[p.pos]
	}
	return 0
}

func (p *jsonParser) parseValue() (Value, error) {
	p.skipWS()
	if p.pos >= len(p.data) {
		return nil, p.errf("unexpected end of input")
	}
	switch c := p.data[p.pos]; {
	case c == '{':
		if p.pos+1 < len(p.data) && p.data[p.pos+1] == '{' {
			return p.parseMultiset()
		}
		return p.parseObject()
	case c == '[':
		return p.parseArray()
	case c == '"':
		s, err := p.parseString()
		if err != nil {
			return nil, err
		}
		return String(s), nil
	case c == 't':
		if err := p.expect("true"); err != nil {
			return nil, err
		}
		return Boolean(true), nil
	case c == 'f':
		if err := p.expect("false"); err != nil {
			return nil, err
		}
		return Boolean(false), nil
	case c == 'n':
		if err := p.expect("null"); err != nil {
			return nil, err
		}
		return Null, nil
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	}
	return nil, p.errf("unexpected character %q at offset %d", p.data[p.pos], p.pos)
}

func (p *jsonParser) expect(lit string) error {
	if p.pos+len(lit) > len(p.data) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errf("expected %q at offset %d", lit, p.pos)
	}
	p.pos += len(lit)
	return nil
}

func (p *jsonParser) parseNumber() (Value, error) {
	start := p.pos
	isFloat := false
	if p.peek() == '-' {
		p.pos++
	}
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c >= '0' && c <= '9' {
			p.pos++
		} else if c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			isFloat = true
			p.pos++
		} else {
			break
		}
	}
	text := string(p.data[start:p.pos])
	if !isFloat {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return Int64(i), nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, p.errf("invalid number %q", text)
	}
	return Double(f), nil
}

func (p *jsonParser) parseString() (string, error) {
	if p.peek() != '"' {
		return "", p.errf("expected string at offset %d", p.pos)
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return sb.String(), nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return "", p.errf("unterminated escape")
			}
			e := p.data[p.pos]
			p.pos++
			switch e {
			case '"', '\\', '/':
				sb.WriteByte(e)
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case 'u':
				r, err := p.parseHex4()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) && p.pos+1 < len(p.data) && p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
					p.pos += 2
					r2, err := p.parseHex4()
					if err != nil {
						return "", err
					}
					r = utf16.DecodeRune(r, r2)
				}
				sb.WriteRune(r)
			default:
				return "", p.errf("invalid escape \\%c", e)
			}
		default:
			_, size := utf8.DecodeRune(p.data[p.pos:])
			sb.Write(p.data[p.pos : p.pos+size])
			p.pos += size
		}
	}
	return "", p.errf("unterminated string")
}

func (p *jsonParser) parseHex4() (rune, error) {
	if p.pos+4 > len(p.data) {
		return 0, p.errf("truncated \\u escape")
	}
	n, err := strconv.ParseUint(string(p.data[p.pos:p.pos+4]), 16, 32)
	if err != nil {
		return 0, p.errf("invalid \\u escape")
	}
	p.pos += 4
	return rune(n), nil
}

func (p *jsonParser) parseObject() (Value, error) {
	p.pos++ // '{'
	o := NewObject()
	p.skipWS()
	if p.peek() == '}' {
		p.pos++
		return o, nil
	}
	for {
		p.skipWS()
		name, err := p.parseString()
		if err != nil {
			return nil, err
		}
		p.skipWS()
		if p.peek() != ':' {
			return nil, p.errf("expected ':' at offset %d", p.pos)
		}
		p.pos++
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		o.Set(name, v)
		p.skipWS()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return o, nil
		default:
			return nil, p.errf("expected ',' or '}' at offset %d", p.pos)
		}
	}
}

func (p *jsonParser) parseArray() (Value, error) {
	p.pos++ // '['
	a := Array{}
	p.skipWS()
	if p.peek() == ']' {
		p.pos++
		return a, nil
	}
	for {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		a = append(a, v)
		p.skipWS()
		switch p.peek() {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return a, nil
		default:
			return nil, p.errf("expected ',' or ']' at offset %d", p.pos)
		}
	}
}

func (p *jsonParser) parseMultiset() (Value, error) {
	p.pos += 2 // '{{'
	m := Multiset{}
	p.skipWS()
	if p.peek() == '}' && p.pos+1 < len(p.data) && p.data[p.pos+1] == '}' {
		p.pos += 2
		return m, nil
	}
	for {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		m = append(m, v)
		p.skipWS()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			if p.pos+1 >= len(p.data) || p.data[p.pos+1] != '}' {
				return nil, p.errf("expected '}}' at offset %d", p.pos)
			}
			p.pos += 2
			return m, nil
		default:
			return nil, p.errf("expected ',' or '}}' at offset %d", p.pos)
		}
	}
}

// quoteJSON writes s as a JSON string literal (strconv.Quote is Go
// syntax, not JSON: it emits \x and \U escapes JSON parsers reject).
func quoteJSON(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		case '\b':
			sb.WriteString(`\b`)
		case '\f':
			sb.WriteString(`\f`)
		default:
			if r < 0x20 {
				fmt.Fprintf(sb, `\u%04x`, r)
			} else {
				sb.WriteRune(r)
			}
		}
	}
	sb.WriteByte('"')
}

// SerializeJSON renders a value as strict JSON (suitable for API results):
// temporal and spatial values become their ISO / textual forms as strings,
// multisets become arrays, missing becomes null at top level (inside
// objects, missing fields are simply omitted by construction).
func SerializeJSON(sb *strings.Builder, v Value) {
	switch x := v.(type) {
	case missingValue, nullValue:
		sb.WriteString("null")
	case Boolean:
		if x {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case Int64:
		sb.WriteString(strconv.FormatInt(int64(x), 10))
	case Double:
		jsonNumber(sb, float64(x))
	case String:
		quoteJSON(sb, string(x))
	case Date:
		quoteJSON(sb, FormatDate(x))
	case Time:
		quoteJSON(sb, FormatTime(x))
	case Datetime:
		quoteJSON(sb, FormatDatetime(x))
	case Duration:
		quoteJSON(sb, FormatDuration(x))
	case Point:
		jsonNumbers(sb, `{"point":[`, x.X, x.Y)
	case Rectangle:
		jsonNumbers(sb, `{"rectangle":[`, x.MinX, x.MinY, x.MaxX, x.MaxY)
	case UUID:
		quoteJSON(sb, fmt.Sprintf("%x", x[:]))
	case Binary:
		quoteJSON(sb, fmt.Sprintf("%X", []byte(x)))
	case Array:
		sb.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				sb.WriteByte(',')
			}
			SerializeJSON(sb, e)
		}
		sb.WriteByte(']')
	case Multiset:
		sb.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				sb.WriteByte(',')
			}
			SerializeJSON(sb, e)
		}
		sb.WriteByte(']')
	case *Object:
		sb.WriteByte('{')
		first := true
		for _, f := range x.Fields() {
			if f.Value.Kind() == KindMissing {
				continue
			}
			if !first {
				sb.WriteByte(',')
			}
			first = false
			quoteJSON(sb, f.Name)
			sb.WriteByte(':')
			SerializeJSON(sb, f.Value)
		}
		sb.WriteByte('}')
	}
}

// jsonNumber writes f as a JSON number, or, where JSON has none (NaN and
// the infinities), as the string Double.String spells it with.
func jsonNumber(sb *strings.Builder, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		quoteJSON(sb, Double(f).String())
	} else {
		sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	}
}

// jsonNumbers writes prefix, the numbers as one array, and the closing "}".
func jsonNumbers(sb *strings.Builder, prefix string, fs ...float64) {
	sb.WriteString(prefix)
	for i, f := range fs {
		if i > 0 {
			sb.WriteByte(',')
		}
		jsonNumber(sb, f)
	}
	sb.WriteString("]}")
}

// ToJSON returns the strict-JSON rendering of v.
func ToJSON(v Value) string {
	var sb strings.Builder
	SerializeJSON(&sb, v)
	return sb.String()
}
