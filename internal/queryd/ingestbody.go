package queryd

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// maxIngestBody caps one /v1/insert or /v2/ingest body.
const maxIngestBody = 32 << 20

// maxNesting is how deep objects and arrays may nest in an ingest body,
// the limit encoding/json enforces.
const maxNesting = 10000

// itemsPrealloc caps the items decodeIngestBody allocates up front, one
// per '{' in the body besides the request object's own; a body with more
// items grows the slice.
const itemsPrealloc = 4096

// decodeIngestBody parses a /v1/insert or /v2/ingest body,
//
//	{"items":[{"key":K,"value":V},...],"source":S,"epoch":E}
//
// into the typed batch. A zero or omitted item value counts as 1, the
// frequency-estimation default.
//
// It accepts exactly the bodies encoding/json decodes into that shape and
// yields the same batch, which FuzzDecodeIngest checks: member names match
// as bytes.EqualFold matches them, escapes included; unknown members are
// skipped but validated; a repeated member wins last; null leaves a number
// or item as it was and empties the items; the uint64 fields refuse signs,
// fractions, exponents and overflow; bytes after the first value are
// ignored.
//
// Items are parsed straight into one slice, sized up front for bodies of
// up to itemsPrealloc items. Nothing in the returned batch refers to body.
func decodeIngestBody(body []byte) (ingest.Batch, error) {
	p := ingestParser{buf: body}
	p.items = make([]stream.Item, 0, min(max(bytes.Count(body, []byte{'{'})-1, 0), itemsPrealloc))
	if err := p.parse(); err != nil {
		return ingest.Batch{}, err
	}
	items := p.items[:p.n:p.n]
	for i := range items {
		if items[i].Value == 0 {
			items[i].Value = 1
		}
	}
	return ingest.Batch{Items: items, Source: p.source, Epoch: p.epoch}, nil
}

// ingestParser holds one decodeIngestBody call's state.
//
// The items follow encoding/json's slice semantics, which a repeated
// "items" member can observe: a later array decodes into the elements the
// earlier one left, a shorter one truncates, and a longer one re-exposes
// elements that were truncated away. So items holds every element written
// since the backing array was last replaced, n of them are the slice's
// length, and elements past len(items) read as zero; an empty array or
// null replaces the backing array.
type ingestParser struct {
	buf   []byte
	pos   int
	depth int

	items []stream.Item
	n     int

	source, epoch uint64
}

// parse decodes the first value of buf, which must be an object or null.
func (p *ingestParser) parse() error {
	p.skipSpace()
	if p.pos == len(p.buf) {
		return errors.New("empty body")
	}
	switch p.buf[p.pos] {
	case '{':
		return p.request()
	case 'n':
		return p.literal("null")
	}
	return p.fail("body is not a JSON object")
}

// request decodes the top-level object.
func (p *ingestParser) request() error {
	if err := p.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, more, err := p.member(first)
		if !more {
			return err
		}
		switch {
		case nameIs(name, "items"):
			err = p.itemList()
		case nameIs(name, "source"):
			err = p.unsigned(&p.source)
		case nameIs(name, "epoch"):
			err = p.unsigned(&p.epoch)
		default:
			err = p.skip()
		}
		if err != nil {
			return err
		}
	}
}

// itemList decodes the value of an "items" member.
func (p *ingestParser) itemList() error {
	switch p.peek() {
	case 'n':
		p.n, p.items = 0, p.items[:0]
		return p.literal("null")
	case '[':
	default:
		return p.fail("items is not an array")
	}
	if err := p.enter(); err != nil {
		return err
	}
	p.skipSpace()
	i := 0
	for p.peek() != ']' {
		if i > 0 {
			if err := p.comma(); err != nil {
				return err
			}
		}
		if i == len(p.items) {
			p.items = append(p.items, stream.Item{})
		}
		p.n = max(p.n, i+1)
		if err := p.item(&p.items[i]); err != nil {
			return err
		}
		i++
		p.skipSpace()
	}
	p.leave()
	p.n = min(p.n, i)
	if i == 0 {
		p.items = p.items[:0]
	}
	return nil
}

// item decodes one element of an items array into dst.
func (p *ingestParser) item(dst *stream.Item) error {
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '{':
	default:
		return p.fail("item is not an object")
	}
	if err := p.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, more, err := p.member(first)
		if !more {
			return err
		}
		switch {
		case nameIs(name, "key"):
			err = p.unsigned(&dst.Key)
		case nameIs(name, "value"):
			err = p.unsigned(&dst.Value)
		default:
			err = p.skip()
		}
		if err != nil {
			return err
		}
	}
}

// unsigned decodes a uint64 member value into dst; null leaves dst as it is.
func (p *ingestParser) unsigned(dst *uint64) error {
	buf, i := p.buf, p.pos
	if i == len(buf) || buf[i] < '0' || buf[i] > '9' {
		if p.peek() == 'n' {
			return p.literal("null")
		}
		return p.fail("want an unsigned integer")
	}
	var v uint64
	if buf[i] == '0' {
		i++
	} else {
		// 19 digits cannot overflow; a 20th may.
		for end := min(i+19, len(buf)); i < end && isDigit(buf[i]); i++ {
			v = v*10 + uint64(buf[i]-'0')
		}
		if i < len(buf) && isDigit(buf[i]) {
			d := uint64(buf[i] - '0')
			if v > math.MaxUint64/10 || v == math.MaxUint64/10 && d > math.MaxUint64%10 {
				p.pos = i
				return p.fail("number overflows uint64")
			}
			v = v*10 + d
			i++
		}
	}
	p.pos = i
	if c := p.peek(); c == '.' || c == 'e' || c == 'E' || isDigit(c) {
		return p.fail("want an unsigned integer")
	}
	*dst = v
	return nil
}

// member consumes the separator before an object's next member and that
// member's name and colon, leaving p at its value. It returns the raw
// name, still escaped, and more=false once it has consumed the closing
// brace instead.
func (p *ingestParser) member(first bool) (name []byte, more bool, err error) {
	p.skipSpace()
	if p.peek() == '}' {
		p.leave()
		return nil, false, nil
	}
	if !first {
		if err := p.comma(); err != nil {
			return nil, false, err
		}
	}
	if p.peek() != '"' {
		return nil, false, p.fail("want a member name")
	}
	if name, err = p.str(); err != nil {
		return nil, false, err
	}
	p.skipSpace()
	if p.peek() != ':' {
		return nil, false, p.fail("want ':' after a member name")
	}
	p.pos++
	p.skipSpace()
	return name, true, nil
}

// comma consumes the ',' between two elements or members and the space
// after it.
func (p *ingestParser) comma() error {
	if p.peek() != ',' {
		return p.fail("want ',' or a closing bracket")
	}
	p.pos++
	p.skipSpace()
	return nil
}

// skip validates and steps over one value of any type.
func (p *ingestParser) skip() error {
	switch c := p.peek(); c {
	case '{':
		if err := p.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, more, err := p.member(first)
			if !more {
				return err
			}
			if err := p.skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := p.enter(); err != nil {
			return err
		}
		p.skipSpace()
		for i := 0; p.peek() != ']'; i++ {
			if i > 0 {
				if err := p.comma(); err != nil {
					return err
				}
			}
			if err := p.skip(); err != nil {
				return err
			}
			p.skipSpace()
		}
		p.leave()
		return nil
	case '"':
		_, err := p.str()
		return err
	case 't':
		return p.literal("true")
	case 'f':
		return p.literal("false")
	case 'n':
		return p.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			return p.number()
		}
		return p.fail("want a value")
	}
}

// enter consumes the '{' or '[' at p.pos, one level deeper.
func (p *ingestParser) enter() error {
	if p.depth++; p.depth > maxNesting {
		return p.fail("nested too deep")
	}
	p.pos++
	return nil
}

// leave consumes the '}' or ']' at p.pos, one level shallower.
func (p *ingestParser) leave() {
	p.depth--
	p.pos++
}

// number validates the JSON number at p.pos:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *ingestParser) number() error {
	if p.peek() == '-' {
		p.pos++
	}
	switch c := p.peek(); {
	case c == '0':
		p.pos++
	case '1' <= c && c <= '9':
		p.digits()
	default:
		return p.fail("malformed number")
	}
	if p.peek() == '.' {
		p.pos++
		if p.digits() == 0 {
			return p.fail("malformed number")
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		if p.digits() == 0 {
			return p.fail("malformed number")
		}
	}
	return nil
}

// digits consumes a run of decimal digits and returns its length.
func (p *ingestParser) digits() int {
	start := p.pos
	for p.pos < len(p.buf) && isDigit(p.buf[p.pos]) {
		p.pos++
	}
	return p.pos - start
}

// str validates the string at p.pos and returns its raw contents, between
// the quotes and still escaped.
func (p *ingestParser) str() ([]byte, error) {
	buf := p.buf
	start := p.pos + 1
	for i := start; i < len(buf); {
		switch c := buf[i]; {
		case c == '"':
			p.pos = i + 1
			return buf[start:i], nil
		case c == '\\':
			p.pos = i
			if err := p.escape(); err != nil {
				return nil, err
			}
			i = p.pos
		case c < ' ':
			p.pos = i
			return nil, p.fail("control character in string")
		default:
			i++
		}
	}
	p.pos = len(buf)
	return nil, p.fail("unterminated string")
}

// escape validates the escape sequence at p.pos.
func (p *ingestParser) escape() error {
	if p.pos+1 >= len(p.buf) {
		p.pos = len(p.buf)
		return p.fail("unterminated string")
	}
	switch p.buf[p.pos+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		p.pos += 2
		return nil
	case 'u':
		p.pos += 2
		for range 4 {
			if p.pos == len(p.buf) || hexVal(p.buf[p.pos]) < 0 {
				return p.fail("malformed \\u escape")
			}
			p.pos++
		}
		return nil
	}
	p.pos++
	return p.fail("malformed escape")
}

// literal consumes the literal word (true, false or null) at p.pos.
func (p *ingestParser) literal(word string) error {
	for i := range len(word) {
		if p.peek() != word[i] {
			return p.fail("malformed literal, want " + word)
		}
		p.pos++
	}
	return nil
}

func (p *ingestParser) skipSpace() {
	i := p.pos
	for i < len(p.buf) && isSpace(p.buf[i]) {
		i++
	}
	p.pos = i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// peek returns the byte at p.pos, or 0 at the end of the body (0 never
// starts or continues a valid token).
func (p *ingestParser) peek() byte {
	if p.pos < len(p.buf) {
		return p.buf[p.pos]
	}
	return 0
}

func (p *ingestParser) fail(what string) error {
	if p.pos >= len(p.buf) {
		return fmt.Errorf("%s: body ends at offset %d", what, p.pos)
	}
	return fmt.Errorf("%s: found %q at offset %d", what, p.buf[p.pos], p.pos)
}

// nameIs reports whether the raw member name, still escaped, names the
// field want (lower-case ASCII) the way encoding/json matches names:
// equal once each rune is folded by foldRune, escapes decoded, invalid
// UTF-8 and unpaired surrogates read as U+FFFD. It inlines, so the exact
// comparison is against a constant.
func nameIs(raw []byte, want string) bool {
	return string(raw) == want || foldedNameIs(raw, want)
}

func foldedNameIs(raw []byte, want string) bool {
	j := 0
	for i := 0; i < len(raw); j++ {
		var r rune
		r, i = nameRune(raw, i)
		if j == len(want) || foldRune(r) != rune(want[j])-('a'-'A') {
			return false
		}
	}
	return j == len(want)
}

// nameRune decodes the rune of a raw, valid string body at i, returning
// it and the index after it.
func nameRune(raw []byte, i int) (rune, int) {
	if c := raw[i]; c != '\\' {
		if c < utf8.RuneSelf {
			return rune(c), i + 1
		}
		r, n := utf8.DecodeRune(raw[i:])
		return r, i + n
	}
	switch c := raw[i+1]; c {
	case 'b':
		return '\b', i + 2
	case 'f':
		return '\f', i + 2
	case 'n':
		return '\n', i + 2
	case 'r':
		return '\r', i + 2
	case 't':
		return '\t', i + 2
	case 'u':
	default:
		return rune(c), i + 2
	}
	r := hex4(raw[i+2:])
	if !utf16.IsSurrogate(r) {
		return r, i + 6
	}
	if i+12 <= len(raw) && raw[i+6] == '\\' && raw[i+7] == 'u' {
		if pair := utf16.DecodeRune(r, hex4(raw[i+8:])); pair != unicode.ReplacementChar {
			return pair, i + 12
		}
	}
	return unicode.ReplacementChar, i + 6
}

// foldRune folds r the way encoding/json folds member names: ASCII
// letters to upper case, any other rune to the smallest rune of its
// unicode.SimpleFold orbit.
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		next := unicode.SimpleFold(r)
		if next <= r {
			return next
		}
		r = next
	}
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		r = r<<4 | rune(hexVal(c))
	}
	return r
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}
