package queryd

import (
	"bytes"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// maxIngestBody caps one /v2/ingest body.
const maxIngestBody = 32 << 20

// itemsPrealloc caps the items decodeIngestBody allocates at once, one
// per '{' in the body besides the request object's own; a body with more
// items grows the slice.
const itemsPrealloc = 4096

// decodeIngestBody parses a /v2/ingest body,
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
// Items are parsed straight into one slice, sized on first use for bodies
// of up to itemsPrealloc items. Nothing in the returned batch refers to body.
func decodeIngestBody(body []byte) (ingest.Batch, error) {
	p := ingestParser{scanner: scanner{buf: body}}
	p.items.hint = min(max(bytes.Count(body, []byte{'{'})-1, 0), itemsPrealloc)
	if object, err := p.first(); !object {
		return ingest.Batch{}, err
	}
	if err := p.batch(); err != nil {
		return ingest.Batch{}, err
	}
	items := p.items.slice()
	for i := range items {
		if items[i].Value == 0 {
			items[i].Value = 1
		}
	}
	return ingest.Batch{Items: items, Source: p.source, Epoch: p.epoch}, nil
}

// ingestParser holds one decodeIngestBody call's state.
type ingestParser struct {
	scanner
	items         list[stream.Item]
	source, epoch uint64
}

// batch decodes the top-level object.
func (p *ingestParser) batch() error {
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
			err = p.items.decode(&p.scanner, "items", p.item)
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
