package dist

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync/atomic"

	"datacutter/internal/wirebin"
)

// A PayloadCodec serializes one concrete buffer payload type onto the data
// plane without gob's per-frame type descriptors or reflection. Codecs are
// the fast path: any payload type without a registered codec still travels
// via the gob fallback (codec id 0), so registering a codec is purely a
// performance decision and both directions of a mixed deployment stay
// wire-compatible as long as the same ids map to the same codecs.
type PayloadCodec interface {
	// Append encodes v, appending its wire bytes to dst. It is the sender's
	// last use of v: the runtime drops v when Append returns (even when
	// the connection has already failed and the bytes go nowhere), so a
	// codec may reclaim v's storage for reuse. Transports that hand a
	// payload over by reference (the in-process ring, exec.Fuse) never
	// call Append.
	Append(dst []byte, v any) ([]byte, error)
	// Decode decodes one payload from body. If ZeroCopy reports true the
	// returned value may alias body; the runtime then keeps body alive
	// until the consuming filter copy finishes the buffer (its next Read
	// on the stream, or stream end-of-work) before recycling it.
	Decode(body []byte) (any, error)
	// ZeroCopy reports whether Decode returns values aliasing its input.
	ZeroCopy() bool
}

// Codec ids 1–255 are reserved for dist built-ins; applications register
// theirs from 256 up. Id 0 is the implicit gob fallback and cannot be
// registered.
const (
	codecGob      uint16 = 0 // fallback, not in the tables
	CodecBytes    uint16 = 1 // []byte, zero-copy decode
	CodecFloat32s uint16 = 2 // []float32, bulk little-endian
)

type codecEntry struct {
	id    uint16
	codec PayloadCodec
}

type codecTables struct {
	byType map[reflect.Type]codecEntry
	byID   map[uint16]PayloadCodec
}

// codecs is copy-on-write: RegisterCodec swaps a fresh table so the
// per-frame lookups on the data plane are a single atomic load.
var codecs atomic.Pointer[codecTables]

func init() {
	codecs.Store(&codecTables{
		byType: map[reflect.Type]codecEntry{},
		byID:   map[uint16]PayloadCodec{},
	})
	RegisterCodec(CodecBytes, []byte(nil), bytesCodec{})
	RegisterCodec(CodecFloat32s, []float32(nil), float32sCodec{})
}

// RegisterCodec installs a fast-path codec for prototype's concrete type
// under a stable wire id. Like RegisterFilter it is meant for init
// functions in the application's filter package, before any worker serves
// traffic, and must be called with the same (id, type) pairing on every
// process of a deployment. It is the sibling of RegisterPayload: types with
// only RegisterPayload still round-trip via gob.
func RegisterCodec(id uint16, prototype any, c PayloadCodec) {
	if id == codecGob {
		panic("dist: codec id 0 is reserved for the gob fallback")
	}
	t := reflect.TypeOf(prototype)
	if t == nil {
		panic("dist: RegisterCodec prototype must be a non-nil-typed value")
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := codecs.Load()
	if _, dup := old.byID[id]; dup {
		panic(fmt.Sprintf("dist: duplicate payload codec id %d", id))
	}
	if _, dup := old.byType[t]; dup {
		panic(fmt.Sprintf("dist: duplicate payload codec for type %v", t))
	}
	nt := &codecTables{
		byType: make(map[reflect.Type]codecEntry, len(old.byType)+1),
		byID:   make(map[uint16]PayloadCodec, len(old.byID)+1),
	}
	for k, v := range old.byType {
		nt.byType[k] = v
	}
	for k, v := range old.byID {
		nt.byID[k] = v
	}
	nt.byType[t] = codecEntry{id: id, codec: c}
	nt.byID[id] = c
	codecs.Store(nt)
}

// codecFor resolves the fast-path codec for a payload value; (0, nil)
// selects the gob fallback.
func codecFor(v any) (uint16, PayloadCodec) {
	if v == nil {
		return codecGob, nil
	}
	if e, ok := codecs.Load().byType[reflect.TypeOf(v)]; ok {
		return e.id, e.codec
	}
	return codecGob, nil
}

func codecByID(id uint16) PayloadCodec { return codecs.Load().byID[id] }

// appendPayload encodes a payload value with its resolved codec, returning
// the codec id actually used.
func appendPayload(dst []byte, v any) ([]byte, uint16, error) {
	id, c := codecFor(v)
	if c == nil {
		var err error
		dst, err = appendGob(dst, v)
		return dst, codecGob, err
	}
	out, err := c.Append(dst, v)
	return out, id, err
}

// decodePayload decodes a received data frame's payload. The returned
// release (possibly nil) must be called once the payload value is dead —
// immediately for copying codecs, at the consumer's finish point for
// zero-copy ones — to recycle the pooled wire buffer.
func decodePayload(f *frame) (any, func(), error) {
	if f.Codec == codecGob {
		v, err := decodeAny(f.Payload)
		f.release()
		return v, nil, err
	}
	c := codecByID(f.Codec)
	if c == nil {
		f.release()
		return nil, nil, fmt.Errorf("dist: payload codec %d not registered on this worker", f.Codec)
	}
	v, err := c.Decode(f.Payload)
	if err != nil || !c.ZeroCopy() {
		f.release()
		return v, nil, err
	}
	rel := f.rel
	f.rel = nil
	return v, rel, nil
}

// appendWriter adapts append-style encoding to gob's io.Writer.
type appendWriter struct{ b *[]byte }

func (w appendWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// appendGob encodes &v with a fresh gob encoder (type descriptors
// included, exactly as the pre-codec wire format did per frame) appending
// to dst, so gob-fallback payloads stay byte-compatible with encodeAny.
func appendGob(dst []byte, v any) ([]byte, error) {
	if err := gob.NewEncoder(appendWriter{&dst}).Encode(&v); err != nil {
		return nil, err
	}
	return dst, nil
}

// ---- Built-in codecs ----

// bytesCodec moves []byte payloads verbatim; its decode aliases the pooled
// wire buffer (zero-copy), which the runtime keeps alive until the
// consuming filter finishes the buffer.
type bytesCodec struct{}

func (bytesCodec) Append(dst []byte, v any) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("dist: bytes codec got %T", v)
	}
	return append(dst, b...), nil
}

func (bytesCodec) Decode(body []byte) (any, error) { return body, nil }
func (bytesCodec) ZeroCopy() bool                  { return true }

// float32sCodec bulk-converts []float32 payloads: a length header plus the
// little-endian sample bytes, decoded with one allocation and one copy.
type float32sCodec struct{}

func (float32sCodec) Append(dst []byte, v any) ([]byte, error) {
	f, ok := v.([]float32)
	if !ok {
		return nil, fmt.Errorf("dist: float32s codec got %T", v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f)))
	return wirebin.AppendFloat32s(dst, f), nil
}

func (float32sCodec) Decode(body []byte) (any, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("dist: float32s payload truncated")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if len(body)-4 != 4*n {
		return nil, fmt.Errorf("dist: float32s payload: %d bytes for %d samples", len(body)-4, n)
	}
	out := make([]float32, n)
	wirebin.Float32s(out, body[4:])
	return out, nil
}

func (float32sCodec) ZeroCopy() bool { return false }
