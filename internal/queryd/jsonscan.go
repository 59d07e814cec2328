package queryd

import (
	"errors"
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNesting is how deep objects and arrays may nest in a request body,
// the limit encoding/json enforces.
const maxNesting = 10000

// scanner is a single-pass JSON reader over one request body: the
// primitives the dedicated body decoders (decodeIngestBody,
// decodeQueryBody) share. Each accepts exactly the syntax encoding/json
// accepts and decodes a value as encoding/json decodes it into a field of
// the matching Go type; errors name what was wanted and the offset.
type scanner struct {
	buf   []byte
	pos   int
	depth int
}

// first starts the body's first value, which must be an object or null.
// It reports whether the value is an object, left unconsumed; a null is
// consumed, and the bytes after the first value are never read.
func (p *scanner) first() (object bool, err error) {
	p.skipSpace()
	if p.pos == len(p.buf) {
		return false, errors.New("empty body")
	}
	switch p.buf[p.pos] {
	case '{':
		return true, nil
	case 'n':
		return false, p.literal("null")
	}
	return false, p.fail("body is not a JSON object")
}

// list is a JSON array decoded with encoding/json's slice semantics, which
// a repeated member can observe: a later array decodes into the elements
// the earlier one left, a shorter one truncates, and a longer one
// re-exposes elements that were truncated away. So elems holds every
// element written since the backing array was last replaced, n of them
// are the slice's length, and elements past len(elems) read as zero. An
// empty array replaces the backing array with an empty one, and null
// with none.
type list[T any] struct {
	elems []T
	n     int
	// hint is the capacity of a fresh backing array.
	hint int
}

// decode decodes the array or null at p.pos into l, each element by elem.
// what names the member in errors.
func (l *list[T]) decode(p *scanner, what string, elem func(*T) error) error {
	switch p.peek() {
	case 'n':
		l.elems, l.n = nil, 0
		return p.literal("null")
	case '[':
	default:
		return p.fail(what + " is not an array")
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
		if i == len(l.elems) {
			if cap(l.elems) == 0 {
				l.elems = make([]T, 0, max(l.hint, 1))
			}
			var zero T
			l.elems = append(l.elems, zero)
		}
		if err := elem(&l.elems[i]); err != nil {
			return err
		}
		i++
		p.skipSpace()
	}
	p.leave()
	l.n = i
	if i == 0 {
		l.elems = []T{}
	}
	return nil
}

// slice is the decoded slice: nil when the member was null or absent.
func (l *list[T]) slice() []T {
	if l.elems == nil {
		return nil
	}
	return l.elems[:l.n:l.n]
}

// unsigned decodes a uint64 member value into dst, refusing a sign,
// fraction, exponent or overflow as encoding/json refuses them for an
// integer field; null leaves dst as it is. It is the one digit parser:
// signed and decodeQueryBody's kind go through it too.
func (p *scanner) unsigned(dst *uint64) error {
	buf, i := p.buf, p.pos
	if i == len(buf) || !isDigit(buf[i]) {
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
		return p.fail("want an integer")
	}
	*dst = v
	return nil
}

// signed decodes an int member value into dst; null leaves dst as it is.
// Like encoding/json it accepts -0, and refuses values int cannot hold.
func (p *scanner) signed(dst *int) error {
	neg := false
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '-':
		neg = true
		p.pos++
		if !isDigit(p.peek()) {
			return p.fail("want an integer")
		}
	}
	var v uint64
	if err := p.unsigned(&v); err != nil {
		return err
	}
	if limit := uint64(math.MaxInt); v > limit && !(neg && v == limit+1) {
		return p.fail("number overflows int")
	}
	if neg {
		v = -v
	}
	*dst = int(v)
	return nil
}

// member consumes the separator before an object's next member and that
// member's name and colon, leaving p at its value. It returns the raw
// name, still escaped, and more=false once it has consumed the closing
// brace instead.
func (p *scanner) member(first bool) (name []byte, more bool, err error) {
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
func (p *scanner) comma() error {
	if p.peek() != ',' {
		return p.fail("want ',' or a closing bracket")
	}
	p.pos++
	p.skipSpace()
	return nil
}

// skip validates and steps over one value of any type.
func (p *scanner) skip() error {
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
func (p *scanner) enter() error {
	if p.depth++; p.depth > maxNesting {
		return p.fail("nested too deep")
	}
	p.pos++
	return nil
}

// leave consumes the '}' or ']' at p.pos, one level shallower.
func (p *scanner) leave() {
	p.depth--
	p.pos++
}

// number validates the JSON number at p.pos:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *scanner) number() error {
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
func (p *scanner) digits() int {
	start := p.pos
	for p.pos < len(p.buf) && isDigit(p.buf[p.pos]) {
		p.pos++
	}
	return p.pos - start
}

// str validates the string at p.pos and returns its raw contents, between
// the quotes and still escaped.
func (p *scanner) str() ([]byte, error) {
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
func (p *scanner) escape() error {
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
func (p *scanner) literal(word string) error {
	for i := range len(word) {
		if p.peek() != word[i] {
			return p.fail("malformed literal, want " + word)
		}
		p.pos++
	}
	return nil
}

func (p *scanner) skipSpace() {
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
func (p *scanner) peek() byte {
	if p.pos < len(p.buf) {
		return p.buf[p.pos]
	}
	return 0
}

func (p *scanner) fail(what string) error {
	if p.pos >= len(p.buf) {
		return fmt.Errorf("%s: body ends at offset %d", what, p.pos)
	}
	return fmt.Errorf("%s: found %q at offset %d", what, p.buf[p.pos], p.pos)
}

// nameIs reports whether the raw member name, still escaped, names the
// field want (lower-case ASCII letters) the way encoding/json matches names:
// equal once each rune is folded by foldRune, escapes decoded, invalid
// UTF-8 and unpaired surrogates read as U+FFFD. It inlines, so the exact
// comparison is against a constant.
func nameIs(raw []byte, want string) bool {
	return string(raw) == want || unquotedIs(raw, want, true)
}

// strIs reports whether the raw string, still escaped, reads want once
// unquoted as encoding/json unquotes it.
func strIs(raw []byte, want string) bool {
	return string(raw) == want || unquotedIs(raw, want, false)
}

// unquotedIs compares the runes of the raw string with the bytes of
// want. With fold set, want holds lower-case ASCII letters, and each rune
// is folded by foldRune against the letter's upper case.
func unquotedIs(raw []byte, want string, fold bool) bool {
	j := 0
	for i := 0; i < len(raw); j++ {
		var r rune
		r, i = nameRune(raw, i)
		if j == len(want) {
			return false
		}
		w := rune(want[j])
		if fold {
			r, w = foldRune(r), w-('a'-'A')
		}
		if r != w {
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
