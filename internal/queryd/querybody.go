package queryd

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/query"
)

// maxQueryBody caps one /v2/query body. A 4096-key batch of the largest
// keys is under 100 KiB.
const maxQueryBody = 8 << 20

// decodeQueryBody parses a /v2/query body,
//
//	{"kind":"point","keys":[K,...],"window":W,"k":N,"agent":A}
//
// into the typed request, without validating it.
//
// It accepts exactly the bodies encoding/json decodes into query.Request
// and yields the same request, which FuzzDecodeQuery checks. The member
// rules are decodeIngestBody's: names match as bytes.EqualFold matches
// them, escapes included; unknown members are skipped but validated; a
// repeated member wins last; bytes after the first value are ignored.
// Each field decodes as encoding/json decodes its type: kind as
// query.Kind's UnmarshalJSON does (a string spelling, matched exactly once
// unescaped, or a uint8 number; null is refused); keys as a []uint64,
// where null empties it to nil and a null element keeps the value before
// it; window and k as ints and agent as a uint64, which refuse fractions,
// exponents and overflow and are left as they are by null.
//
// The keys are parsed straight into one slice, sized from the body's
// commas up to query.MaxBatchKeys. Nothing in the returned request refers
// to body.
func decodeQueryBody(body []byte) (query.Request, error) {
	p := queryParser{scanner: scanner{buf: body}}
	p.keys.hint = min(bytes.Count(body, []byte{','})+1, query.MaxBatchKeys)
	if object, err := p.first(); !object {
		return query.Request{}, err
	}
	if err := p.request(); err != nil {
		return query.Request{}, err
	}
	p.req.Keys = p.keys.slice()
	return p.req, nil
}

// queryParser holds one decodeQueryBody call's state.
type queryParser struct {
	scanner
	req  query.Request
	keys list[uint64]
}

// request decodes the top-level object.
func (p *queryParser) request() error {
	if err := p.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, more, err := p.member(first)
		if !more {
			return err
		}
		switch {
		case nameIs(name, "kind"):
			err = p.kind()
		case nameIs(name, "keys"):
			err = p.keys.decode(&p.scanner, "keys", p.unsigned)
		case nameIs(name, "window"):
			err = p.signed(&p.req.Window)
		case nameIs(name, "k"):
			err = p.signed(&p.req.K)
		case nameIs(name, "agent"):
			err = p.unsigned(&p.req.Agent)
		default:
			err = p.skip()
		}
		if err != nil {
			return err
		}
	}
}

// kind decodes a "kind" member value as query.Kind's UnmarshalJSON does.
func (p *queryParser) kind() error {
	switch c := p.peek(); {
	case c == '"':
		raw, err := p.str()
		if err != nil {
			return err
		}
		for _, k := range [...]query.Kind{query.Point, query.Window, query.TopK} {
			if strIs(raw, k.String()) {
				p.req.Kind = k
				return nil
			}
		}
		return fmt.Errorf("unknown kind %q (want point, window, or topk)", raw)
	case isDigit(c):
		var v uint64
		if err := p.unsigned(&v); err != nil {
			return err
		}
		if v > math.MaxUint8 {
			return p.fail("kind overflows uint8")
		}
		p.req.Kind = query.Kind(v)
		return nil
	}
	return p.fail("kind must be a string or number")
}

// appendExecResponse appends r's /v2/query body to dst: the bytes a
// json.Encoder with HTML escaping off writes for r, trailing newline
// included, which TestAppendExecResponseMatchesEncoder checks. Like that
// encoder it writes nothing for a KeyCoverage JSON cannot express (NaN or
// an infinity), which no surface produces.
func appendExecResponse(dst []byte, r ExecResponse) []byte {
	if math.IsNaN(r.KeyCoverage) || math.IsInf(r.KeyCoverage, 0) {
		return dst
	}
	if r.PerKey == nil {
		dst = append(dst, `{"per_key":null`...)
	} else {
		dst = append(dst, `{"per_key":[`...)
		for i, e := range r.PerKey {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"key":`...)
			dst = strconv.AppendUint(dst, e.Key, 10)
			dst = append(dst, `,"est":`...)
			dst = strconv.AppendUint(dst, e.Est, 10)
			dst = append(dst, `,"lower":`...)
			dst = strconv.AppendUint(dst, e.Lower, 10)
			dst = append(dst, `,"upper":`...)
			dst = strconv.AppendUint(dst, e.Upper, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"coverage":`...)
	dst = strconv.AppendInt(dst, int64(r.Coverage), 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, r.Generation, 10)
	dst = append(dst, `,"source":`...)
	dst = appendJSONString(dst, r.Source)
	dst = append(dst, `,"certified":`...)
	dst = strconv.AppendBool(dst, r.Certified)
	if r.KeyCoverage != 0 {
		dst = append(dst, `,"key_coverage":`...)
		dst = appendJSONFloat(dst, r.KeyCoverage)
	}
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	return append(dst, "}\n"...)
}

// appendJSONString appends s quoted as encoding/json quotes a string with
// HTML escaping off: '"', '\\' and control bytes escaped, invalid UTF-8
// as \ufffd, and U+2028 and U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends the finite f as encoding/json writes a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 on, with the exponent not padded to two digits.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
