package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"

	"datacutter/internal/wirebin"
)

// A PayloadCodec serializes one concrete buffer payload type onto the data
// plane: it is the only way a payload crosses a host boundary. A stream
// whose payload type has no registered codec fails the run at the
// producer's Write; both ends of a deployment must map the same ids to the
// same codecs.
type PayloadCodec interface {
	// Append encodes v, appending its wire bytes to dst. It is the sender's
	// last use of v: the runtime drops v when Append returns (even when
	// the connection has already failed and the bytes go nowhere), so a
	// codec may reclaim v's storage for reuse. Hand-offs within one host
	// (a copy-set queue, exec.Fuse) pass v by reference and never call
	// Append.
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
// theirs from 256 up. Id 0 is unassigned: a receiver rejects it like any
// other id it has no codec for.
const (
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

// RegisterCodec installs the codec for prototype's concrete type under a
// stable wire id. Like RegisterFilter it is meant for init functions in the
// application's filter package, before any worker serves traffic, and must
// be called with the same (id, type) pairing on every process of a
// deployment.
func RegisterCodec(id uint16, prototype any, c PayloadCodec) {
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

// payloadError is a producer's failure to put its own payload on the wire:
// no codec is registered for the payload's Go type, or the codec's Append
// failed. It is an application error on the sending host, never a
// transport one: no peer is implicated.
type payloadError struct {
	stream string       // named by the sending session: frames carry an index
	typ    reflect.Type // nil for an untyped nil payload
	err    error
}

var errNoCodec = errors.New("no payload codec registered")

func (e *payloadError) Error() string {
	return fmt.Sprintf("dist: stream %s: %v payload: %v", e.stream, e.typ, e.err)
}

// appendPayload encodes a payload value with its codec, returning the
// codec id.
func appendPayload(dst []byte, v any) ([]byte, uint16, error) {
	e, ok := codecs.Load().byType[reflect.TypeOf(v)]
	if !ok {
		return nil, 0, &payloadError{typ: reflect.TypeOf(v), err: errNoCodec}
	}
	dst, err := e.codec.Append(dst, v)
	if err != nil {
		return nil, 0, &payloadError{typ: reflect.TypeOf(v), err: err}
	}
	return dst, e.id, nil
}

// decodePayload decodes a received data frame's payload. The returned
// release (possibly nil) must be called once the payload value is dead —
// immediately for copying codecs, at the consumer's finish point for
// zero-copy ones — to recycle the pooled wire buffer.
func decodePayload(f *frame) (any, func(), error) {
	c := codecs.Load().byID[f.Codec]
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
