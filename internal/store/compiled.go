package store

import (
	"bytes"
	"encoding/gob"
	"sync"
	"sync/atomic"
)

// Compiled gob state, one per framed type. A one-shot gob stream of a
// value of T is always the same type-definition messages (the prefix:
// every type of T's tree, numbered by gob's process-wide type ids)
// followed by one value message. Teaching gob those types — building the
// descriptors on encode, receiving them and compiling a decode engine on
// decode — is most of what a one-shot stream costs, and a persistent
// encoder or decoder pays it once. gobType keeps both and still frames
// every record exactly as a one-shot stream would:
//
//   - encode: an encoder's first record is a one-shot stream; after it the
//     encoder writes only value messages, so a later record is the prefix
//     its first record carried plus the value message.
//   - decode: a record's leading type-definition messages are split off
//     and looked up by their bytes; a decoder primed by exactly those bytes
//     decodes the value message. Records from another process, or another
//     first-use order, carry other type ids and so other prefix bytes:
//     each primes its own decoders, up to maxPrefixes per type. Foreign
//     prefixes come from other processes sharing the store directory and
//     from worker shard responses, which this process does not control, so
//     the set is bounded. A record that does not
//     split, a prefix past the bound or a primed decode that fails is
//     decoded by a fresh decoder over the whole record, as a one-shot
//     decode, and the failed decoder is dropped.
type gobType[T any] struct {
	// prefix is the type definitions this process's encoders send, set by
	// the first encoder (nil until then).
	prefix   atomic.Pointer[[]byte]
	encoders chan *gobEncoder // idle persistent encoders

	// decoders maps a prefix to its idle primed decoders. The map is
	// replaced, never mutated, so lookups take no lock; mu serializes
	// admitting a prefix.
	decoders atomic.Pointer[map[string]chan *gobDecoder]
	mu       sync.Mutex
}

// maxPrefixes bounds the prefixes a type keeps primed decoders for, beside
// this process's own: one process meets its own records and those of the
// few processes sharing its store. maxIdle bounds idle encoders per type
// and idle decoders per prefix: a pool only ever holds as many as were in
// use at once, and a server runs a handful of requests at a time, so a
// bound a little above that keeps the steady state primed while a burst
// cannot pin memory.
const (
	maxPrefixes = 8
	maxIdle     = 8
)

func newGobType[T any]() *gobType[T] {
	g := &gobType[T]{encoders: make(chan *gobEncoder, maxIdle)}
	g.decoders.Store(&map[string]chan *gobDecoder{})
	return g
}

// gobEncoder is one persistent encoder and the prefix it sent.
type gobEncoder struct {
	enc    *gob.Encoder
	w      appendWriter
	prefix []byte
	size   int // the largest value message it wrote: the next output's capacity
}

// appendWriter collects what an encoder writes.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// gobDecoder is one decoder over a reader each decode resets.
type gobDecoder struct {
	dec *gob.Decoder
	r   bytes.Reader
}

// encode returns the bytes a one-shot gob encoder writes for *v.
func (g *gobType[T]) encode(v *T) ([]byte, error) {
	var e *gobEncoder
	select {
	case e = <-g.encoders:
	default:
		return g.first(v)
	}
	e.w.b = append(make([]byte, 0, len(e.prefix)+e.size), e.prefix...)
	err := e.enc.Encode(v)
	out := e.w.b
	e.w.b = nil
	if err != nil {
		return nil, err
	}
	if n, ok := typeDefs(out[len(e.prefix):]); !ok || n > 0 {
		// The value taught the encoder a new type (an interface field's
		// concrete type), which a one-shot stream sends in another place.
		return g.first(v)
	}
	e.size = max(e.size, len(out)-len(e.prefix))
	release(g.encoders, e)
	return out, nil
}

// first encodes *v with a fresh encoder — a one-shot stream — and keeps
// the encoder when its stream splits into a prefix and one value message.
func (g *gobType[T]) first(v *T) ([]byte, error) {
	e := &gobEncoder{}
	e.enc = gob.NewEncoder(&e.w)
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	out := e.w.b
	e.w.b = nil
	n, ok := typeDefs(out)
	if !ok {
		return out, nil
	}
	// The caller owns out, so the prefix is kept as a copy, shared by every
	// encoder that sent the same bytes.
	prefix := g.prefix.Load()
	if prefix == nil || !bytes.Equal(*prefix, out[:n]) {
		own := bytes.Clone(out[:n])
		g.prefix.CompareAndSwap(nil, &own)
		prefix = &own
	}
	e.prefix, e.size = *prefix, len(out)-n
	release(g.encoders, e)
	return out, nil
}

// decode decodes a gob stream of one T into *v, which must be zero. It
// fails exactly when a one-shot decoder over data fails.
func (g *gobType[T]) decode(data []byte, v *T) error {
	n, split := typeDefs(data)
	var idle chan *gobDecoder
	if split {
		idle = (*g.decoders.Load())[string(data[:n])]
		select {
		case d := <-idle: // a nil channel is never ready
			d.r.Reset(data[n:])
			err := d.dec.Decode(v)
			d.r.Reset(nil)
			if err == nil {
				release(idle, d)
				return nil
			}
			var zero T
			*v = zero
		default:
		}
	}
	d := &gobDecoder{}
	d.r.Reset(data)
	d.dec = gob.NewDecoder(&d.r)
	if err := d.dec.Decode(v); err != nil {
		return err
	}
	// d has now read exactly the prefix's type definitions and one value.
	d.r.Reset(nil)
	if split && idle == nil {
		idle = g.admit(data[:n])
	}
	if idle != nil {
		release(idle, d)
	}
	return nil
}

// admit returns the idle-decoder pool of a prefix, adding one unless the
// type already keeps maxPrefixes foreign ones (nil then).
func (g *gobType[T]) admit(prefix []byte) chan *gobDecoder {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := *g.decoders.Load()
	if idle, ok := m[string(prefix)]; ok {
		return idle
	}
	own := g.prefix.Load()
	if len(m) >= maxPrefixes && (own == nil || !bytes.Equal(*own, prefix)) {
		return nil
	}
	next := make(map[string]chan *gobDecoder, len(m)+1)
	for k, c := range m {
		next[k] = c
	}
	idle := make(chan *gobDecoder, maxIdle)
	next[string(prefix)] = idle
	g.decoders.Store(&next)
	return idle
}

// release returns an idle encoder or decoder to its pool, dropping it when
// the pool is full.
func release[E any](pool chan E, e E) {
	select {
	case pool <- e:
	default:
	}
}

// typeDefs returns the length of a gob stream's leading type-definition
// messages, reading the framing exactly as a gob.Decoder does: a message
// is a uint byte count and that many bytes, and a type definition's first
// int is a negative type id. It reports false unless a well-framed,
// non-empty value message follows.
func typeDefs(data []byte) (int, bool) {
	off := 0
	for {
		size, w, ok := gobUint(data[off:])
		if !ok || size == 0 || size > uint64(len(data)-off-w) {
			return 0, false
		}
		msg := data[off+w : off+w+int(size)]
		id, _, ok := gobUint(msg)
		if !ok {
			return 0, false
		}
		if id&1 == 0 { // a non-negative type id: the value message
			return off, true
		}
		off += w + int(size)
	}
}

// gobUint decodes one gob unsigned integer: a byte below 0x80 is the
// value; otherwise the byte is the negated count of big-endian bytes that
// follow (at most 8).
func gobUint(b []byte) (x uint64, width int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1, true
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		return 0, 0, false
	}
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n, true
}
