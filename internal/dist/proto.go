// Package dist executes a filter graph across multiple OS processes
// connected by TCP — the deployment model of the original DataCutter
// prototype ("the current prototype implementation uses TCP for stream
// communication", paper §2). A coordinator distributes the graph spec and
// placement to workers (one per named host); each worker runs its local
// transparent copies as goroutines; stream buffers between copies on
// different hosts travel as length-prefixed binary frames over TCP
// connections, one per session and host pair, with TCP backpressure
// standing in for bounded queues across the wire. The same core.Policy
// objects drive buffer distribution, and demand-driven acknowledgments are
// real network messages.
//
// The data plane (data, ack, and producer-done frames) uses hand-rolled
// binary headers, one registered PayloadCodec per payload type (a type
// without one fails the producer's Write), pooled frame buffers, and
// batched connection writers whose flush-on-idle policy coalesces bursts of
// small frames into single vectored writes (wire.go, codec.go). Control
// frames are per-session or per-unit-of-work, never per-buffer, and stay on
// gob: one gob stream per connection direction, so the frame type's
// descriptors cross a connection once.
//
// Filters are constructed worker-side from a registry of named builders
// (the coordinator ships only the spec), so any process that imports the
// application's filter package can serve as a worker.
package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/faults"
)

// FilterSpec names a registered filter builder plus its parameters.
type FilterSpec struct {
	Name   string // filter name in the graph
	Kind   string // registered builder kind
	Params []byte // builder-specific encoding (often gob or JSON)
}

// GraphSpec is a serializable filter graph.
type GraphSpec struct {
	Filters []FilterSpec
	Streams []core.StreamSpec
}

// PlacementEntry assigns copies of a filter to a host. It is the
// engine-neutral elastic.Entry: scale schedules, fault replanning and the
// copy runtime all mutate and read placements in that one shape.
type PlacementEntry = elastic.Entry

// Options configures a distributed run.
type Options struct {
	// JobID namespaces the run on the worker mesh: the setup frame and
	// every peer connection's hello carry it, so one persistent worker
	// process serves interleaved sessions from many concurrent jobs
	// (internal/jobd assigns unique ids). Zero — the default for one-shot
	// runs — behaves exactly like the pre-job protocol: a second setup with
	// the same id is refused while the first session is active.
	JobID uint64

	Policy string // default policy name (core.PolicyByName); default RR
	// StreamPolicy overrides the writer policy for individual streams by
	// name ("RR" | "WRR" | "DD" | "DD/<k>"). Carried to every worker in
	// the setup frame; the coordinator rejects the run up front if any
	// name fails core.PolicyByName.
	StreamPolicy map[string]string
	QueueCap     int // per-copy-set queue capacity (default 8)
	BufferBytes  int // default stream buffer size (default 256 KiB)

	// Transport names the peer data plane. TCP is the only one, so it must
	// be "" or "tcp"; Validate refuses anything else.
	Transport string

	// ScaleSchedule lists seeded copy-set membership changes applied at
	// work-cycle boundaries (elastic.ScaleStep.BeforeUOW >= 1): the
	// coordinator restarts worker sessions with the mutated placement.
	// Gob-carried in the setup frame like the rest of Options, though only
	// the coordinator acts on it.
	ScaleSchedule []elastic.ScaleStep

	// Failure model. Zero values select the defaults below; recovery is
	// opt-in — with MaxUOWRetries at its default of 0, a lost host fails
	// the run immediately (the pre-failure-model behaviour).
	DialTimeout       time.Duration // per-attempt dial timeout (default DefaultDialTimeout)
	DialAttempts      int           // dial attempts before giving up (default 3)
	HeartbeatInterval time.Duration // control-plane heartbeat period (default 1s)
	HeartbeatMisses   int           // consecutive missed beats before a host is dead (default 3)
	MaxUOWRetries     int           // re-dispatches of a failed UOW on a shrunk placement

	// faults is a coordinator-side injector (dial failures). Unexported so
	// gob never ships it to workers; workers get their own injector via
	// Worker.SetFaults. Set with WithFaults.
	faults *faults.Injector
}

// Defaults for the failure-model knobs in Options.
const (
	DefaultDialTimeout       = 10 * time.Second
	DefaultDialAttempts      = 3
	DefaultHeartbeatInterval = time.Second
	DefaultHeartbeatMisses   = 3
)

// WithFaults returns a copy of o carrying a coordinator-side fault
// injector (consulted on dial attempts). Test/chaos use only.
func (o Options) WithFaults(in *faults.Injector) Options {
	o.faults = in
	return o
}

// Validate rejects options no run can use: nonsensical knob values (zero
// means "use the default"), unknown policy names, and any transport but
// TCP. Run calls it before dialing any worker; a job server calls it at
// admission, so a bad job is refused instead of failing every attempt.
func (o Options) Validate() error {
	if err := exec.CheckOptions("dist", o.QueueCap, o.BufferBytes); err != nil {
		return err
	}
	if _, err := exec.ParsePolicies(o.Policy, o.StreamPolicy); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if o.DialTimeout < 0 {
		return fmt.Errorf("dist: Options.DialTimeout must be >= 0, got %v", o.DialTimeout)
	}
	if o.DialAttempts < 0 {
		return fmt.Errorf("dist: Options.DialAttempts must be >= 0, got %d", o.DialAttempts)
	}
	if o.HeartbeatInterval < 0 {
		return fmt.Errorf("dist: Options.HeartbeatInterval must be >= 0, got %v", o.HeartbeatInterval)
	}
	if o.HeartbeatMisses < 0 {
		return fmt.Errorf("dist: Options.HeartbeatMisses must be >= 0, got %d", o.HeartbeatMisses)
	}
	if o.MaxUOWRetries < 0 {
		return fmt.Errorf("dist: Options.MaxUOWRetries must be >= 0, got %d", o.MaxUOWRetries)
	}
	if o.Transport != "" && o.Transport != "tcp" {
		return fmt.Errorf("dist: Options.Transport must be \"\" or \"tcp\", got %q", o.Transport)
	}
	return nil
}

func (o *Options) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return DefaultDialTimeout
}

func (o *Options) dialAttempts() int {
	if o.DialAttempts > 0 {
		return o.DialAttempts
	}
	return DefaultDialAttempts
}

func (o *Options) hbInterval() time.Duration {
	if o.HeartbeatInterval > 0 {
		return o.HeartbeatInterval
	}
	return DefaultHeartbeatInterval
}

func (o *Options) hbMisses() int {
	if o.HeartbeatMisses > 0 {
		return o.HeartbeatMisses
	}
	return DefaultHeartbeatMisses
}

// hbTimeout is how long silence on the control plane is tolerated.
func (o *Options) hbTimeout() time.Duration {
	return o.hbInterval() * time.Duration(o.hbMisses())
}

// Builder constructs a filter instance on a worker.
type Builder func(params []byte) (core.Filter, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Builder{}
)

// RegisterFilter makes a filter kind constructible on workers. Typically
// called from an init function in the application's filter package.
func RegisterFilter(kind string, b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic("dist: duplicate filter kind " + kind)
	}
	registry[kind] = b
}

func builderFor(kind string) (Builder, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("dist: filter kind %q not registered on this worker", kind)
	}
	return b, nil
}

// ---- Wire frames ----
//
// Control frames travel on the coordinator<->worker connection; data, ack,
// and producer-done frames travel on worker->worker connections (one TCP
// connection per session and ordered host pair, so FIFO ordering between a
// host's data and its end-of-work markers is guaranteed by TCP). Frame
// serialization lives in wire.go: binary bodies for the data plane, a
// per-connection gob stream for control.

type frame struct {
	Kind frameKind

	// Control (coordinator -> worker).
	Setup *setupMsg
	UOW   *uowMsg

	// Control (worker -> coordinator).
	Err   string
	Stats *core.Stats // one unit of work's accounting on this host
	// Failure attribution on kindFail: when the first failure a worker saw
	// was a transport error talking to a peer, FailNet is true and FailHost
	// names the implicated host, so the coordinator can mark that host dead
	// instead of treating a cascade as an application error.
	FailHost string
	FailNet  bool

	// Peer traffic (worker -> worker). A hello binds its connection to the
	// session of (Job, SetupID); the frames after it name a stream by its
	// index in that session's GraphSpec.Streams.
	Job     uint64 // hello: the dialing session's job
	SetupID uint64 // hello: the dialing session's setup round (setupMsg.ID)
	UOWIdx  int    // unit of work the frame belongs to (stale frames dropped)
	Stream  int    // index into GraphSpec.Streams
	Target  int    // consumer copy-set index (data) / producer target index (ack)
	Copy    int    // producer global copy index (data: sender; ack: addressee)
	AckN    int    // coalesced ack count
	Codec   uint16 // payload codec id
	Payload []byte // encoded payload; on receive it aliases the pooled wire buffer
	Size    int    // buffer's accounted size

	// payloadVal is a tx-side payload value, serialized by appendFrame with
	// its codec unless Payload already holds encoded bytes (a received
	// frame re-encoded). A nil value has no codec, so it fails the send.
	payloadVal any
	// dup queues the frame's wire bytes twice (fault injection).
	dup bool
	// rel recycles the pooled wire buffer a received data frame (and its
	// in-place-decoded payload) lives in; see frame.release.
	rel func()
}

// dataFrame builds a tx data frame around a payload value.
func dataFrame(e exec.Edge, ackN, size int, payload any) *frame {
	return &frame{
		Kind: kindData, UOWIdx: e.UOW, Stream: e.Stream, Copy: e.From,
		Target: e.Target, AckN: ackN, Size: size,
		payloadVal: payload,
	}
}

type frameKind uint8

const (
	kindHello frameKind = iota + 1
	kindSetup
	kindSetupOK
	_ // 4-7: retired; a unit of work is one request and one reply
	_
	_
	_
	kindRunUOW  // coordinator -> worker: run one unit of work
	kindUOWDone // worker -> coordinator: the unit's Stats fragment
	kindShutdown
	kindData
	kindAck
	kindProducerDone
	kindFail
	kindHeartbeat // liveness beacon, both directions on the control plane
	_             // 16, 17: retired; a kindShutdown with Err set aborts
	_
	kindShutdownDone // worker -> coordinator: the session ended
)

type setupMsg struct {
	// ID names the setup round (one connectAll) this session belongs to:
	// random and nonzero, so a peer connection's hello can never bind a
	// session of another round of the same job.
	ID        uint64
	Graph     GraphSpec
	Placement []PlacementEntry
	Opts      Options
	Addrs     map[string]string // host name -> worker address
	Host      string            // the receiving worker's host name
}

type uowMsg struct {
	Index int
	Work  []byte // gob-encoded unit-of-work descriptor
}

// RegisterPayload registers a unit-of-work descriptor type with gob
// (convenience wrapper so applications don't import encoding/gob). Buffer
// payloads never use it: they cross hosts through RegisterCodec.
func RegisterPayload(v any) { gob.Register(v) }

// RawUOW is a pre-encoded unit-of-work descriptor (the output of
// EncodeUOW). A coordinator passes it through to workers verbatim instead
// of gob-encoding it again, so a job server can relay units of work whose
// concrete Go types only the submitting client and the workers know.
type RawUOW []byte

// EncodeUOW serializes a unit-of-work descriptor for transport outside a
// live session — e.g. inside a job submission to internal/jobd. The
// concrete type must be registered (RegisterPayload) in the worker
// processes that will decode it.
func EncodeUOW(v any) (RawUOW, error) {
	raw, err := encodeAny(v)
	return RawUOW(raw), err
}

// DecodeUOW reverses EncodeUOW; the concrete type must be registered in
// this process.
func DecodeUOW(raw RawUOW) (any, error) { return decodeAny(raw) }

// encodeAny gob-encodes a value (with its concrete type registered): the
// unit-of-work descriptor format.
func encodeAny(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeAny(raw []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}
