package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"time"

	"datacutter/internal/faults"
	"datacutter/internal/obs"
)

// Wire format (full layout diagram in DESIGN.md, "Wire protocol"):
//
//	wire frame := u32 length | u8 kind | body     (length = 1 + len(body))
//
// The data/ack/producer-done plane — the per-buffer hot path — uses
// hand-rolled little-endian bodies of fixed-size fields. A peer connection
// belongs to one session: its hello names the session's job and setup
// round, and the frames after it carry only what varies within that
// session — the unit of work and the stream's index in the setup's
// GraphSpec.Streams:
//
//	data  := u32 uow | u16 stream | u32 target | u32 copy | u32 ackN |
//	         u32 size | u16 codec | u32 plen | payload
//	ack   := u32 uow | u16 stream | u32 target | u32 copy | u32 ackN
//	done  := u32 uow | u16 stream
//	hello := u64 job | u64 setup
//
// A data payload is encoded by the registered PayloadCodec its id names
// (codec.go); a receiver rejects an id it has no codec for. Everything else
// (setup, unit-of-work, declarations, stats, failures) is control traffic —
// rare, per-session or per-UOW — and keeps a gob-encoded frame struct as
// its body. Each direction of a connection is one gob stream: the frame
// type's descriptors travel once, in the first control frame, and every
// later control frame body is one gob value.

// maxFrameLen bounds a frame's length prefix; anything larger is a corrupt
// or hostile stream and fails the connection before large allocations.
const maxFrameLen = 256 << 20

// errFrameTooLarge is returned for length prefixes outside (0, maxFrameLen].
var errFrameTooLarge = fmt.Errorf("dist: frame length prefix exceeds %d bytes", maxFrameLen)

// defaultWireBuf is the per-connection write-coalescing buffer size.
const defaultWireBuf = 64 << 10

// ---- Pooled wire buffers ----

// wirePool recycles frame encode/decode buffers. Oversized buffers (above
// maxPooledBuf) are dropped rather than pinned in the pool.
var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBuf = 4 << 20

func getWireBuf() *[]byte { return wirePool.Get().(*[]byte) }

func putWireBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	wirePool.Put(b)
}

// release returns a received frame's pooled wire buffer (no-op when the
// frame does not own one, or after the first call).
func (f *frame) release() {
	if f.rel != nil {
		f.rel()
		f.rel = nil
	}
}

// control reports whether frames of kind k travel on the gob control
// stream rather than the stateless binary plane.
func (k frameKind) control() bool {
	switch k {
	case kindData, kindAck, kindProducerDone, kindHello, kindHeartbeat:
		return false
	}
	return true
}

// ---- Frame encode ----

// frameWriter encodes the frames of one connection direction. Binary-plane
// frames touch none of its state, so concurrent senders encode them in
// parallel; control frames share the direction's gob stream, so callers
// must serialize them in wire order (conn.send holds conn.ctl from encode
// to queue). The zero value is a fresh stream.
type frameWriter struct {
	enc *gob.Encoder
	out []byte // enc's sink: the frame being appended to, during an encode
}

// appendWriter adapts append-style encoding to gob's io.Writer.
type appendWriter struct{ b *[]byte }

func (w appendWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// appendFrame serializes f (kind byte + body, no length prefix) onto dst.
// For data frames carrying a payload value, the payload is encoded through
// the codec registry; pre-encoded payload bytes (re-framing a received
// frame) are copied verbatim with their codec id.
func (w *frameWriter) appendFrame(dst []byte, f *frame) ([]byte, error) {
	dst = append(dst, byte(f.Kind))
	if f.Kind.control() {
		if w.enc == nil {
			w.enc = gob.NewEncoder(appendWriter{&w.out})
		}
		w.out = dst
		err := w.enc.Encode(f)
		dst, w.out = w.out, nil
		if err != nil {
			return nil, fmt.Errorf("dist: encoding %v control frame: %w", f.Kind, err)
		}
		return dst, nil
	}
	switch f.Kind {
	case kindData, kindAck, kindProducerDone:
		dst = appendU32(dst, f.UOWIdx)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Stream))
		if f.Kind == kindProducerDone {
			break
		}
		dst = appendU32(dst, f.Target)
		dst = appendU32(dst, f.Copy)
		dst = appendU32(dst, f.AckN)
		if f.Kind == kindAck {
			break
		}
		dst = appendU32(dst, f.Size)
		if f.Payload != nil {
			dst = binary.LittleEndian.AppendUint16(dst, f.Codec)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
			return append(dst, f.Payload...), nil
		}
		idAt := len(dst)
		dst = append(dst, 0, 0, 0, 0, 0, 0) // codec id + payload length
		var id uint16
		var err error
		dst, id, err = appendPayload(dst, f.payloadVal)
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint16(dst[idAt:], id)
		binary.LittleEndian.PutUint32(dst[idAt+2:], uint32(len(dst)-idAt-6))
	case kindHello:
		dst = binary.LittleEndian.AppendUint64(dst, f.Job)
		dst = binary.LittleEndian.AppendUint64(dst, f.SetupID)
	}
	return dst, nil
}

func appendU32(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

// ---- Frame decode ----

// frameReader decodes the kind-prefixed frame bodies of one connection
// direction. It is not synchronized — each direction has a single reader.
//
// dec is the direction's gob control stream. It reads from src, which holds
// exactly the frame body being decoded, so gob never reads ahead.
type frameReader struct {
	dec *gob.Decoder
	src bytes.Reader
	// err is sticky: after a failed frame the stream position and the gob
	// stream's type table are unknown, so nothing later is trusted.
	err error
}

// bodyLen is the fixed body length of each binary-plane kind; a data
// frame's payload follows its fixed part.
var bodyLen = [...]int{kindHello: 16, kindData: 28, kindAck: 18, kindProducerDone: 6, kindHeartbeat: 0}

var errShortFrame = fmt.Errorf("dist: truncated frame")

// errTrailingBytes rejects frames whose body is longer than the fields (or
// the control frame's one gob value) account for: every accepted
// binary-plane frame re-encodes byte-identically.
var errTrailingBytes = fmt.Errorf("dist: frame has trailing bytes")

// errControlStream marks every failure to decode a control frame; the
// connection's control stream is unusable from then on.
var errControlStream = fmt.Errorf("dist: corrupt control stream")

// decodeFrame parses one frame body (kind byte + body, as produced by
// appendFrame). Data-frame payloads alias buf.
func (r *frameReader) decodeFrame(buf []byte) (*frame, error) {
	if len(buf) < 1 {
		return nil, errShortFrame
	}
	f := &frame{Kind: frameKind(buf[0])}
	b := buf[1:]
	if !f.Kind.control() {
		switch n := bodyLen[f.Kind]; {
		case len(b) < n:
			return nil, errShortFrame
		case len(b) > n && f.Kind != kindData:
			return nil, errTrailingBytes
		}
	}
	le := binary.LittleEndian
	switch f.Kind {
	case kindData, kindAck, kindProducerDone:
		f.UOWIdx, f.Stream = int(le.Uint32(b)), int(le.Uint16(b[4:]))
		if f.Kind == kindProducerDone {
			break
		}
		f.Target, f.Copy, f.AckN = int(le.Uint32(b[6:])), int(le.Uint32(b[10:])), int(le.Uint32(b[14:]))
		if f.Kind == kindAck {
			break
		}
		f.Size, f.Codec = int(le.Uint32(b[18:])), le.Uint16(b[22:])
		f.Payload = b[bodyLen[kindData]:]
		if plen := int(le.Uint32(b[24:])); plen != len(f.Payload) {
			return nil, fmt.Errorf("dist: data frame payload length %d, have %d bytes", plen, len(f.Payload))
		}
	case kindHello:
		f.Job, f.SetupID = le.Uint64(b), le.Uint64(b[8:])
	case kindHeartbeat:
	case kindSetup, kindSetupOK, kindInitUOW, kindDecls, kindBeginProcess,
		kindProcessDone, kindFinalize, kindFinalizeDone, kindShutdown, kindFail,
		kindAbort, kindAbortDone, kindShutdownDone:
		if r.dec == nil {
			r.dec = gob.NewDecoder(&r.src) // *bytes.Reader is an io.ByteReader: no read-ahead buffer
		}
		// gob sizes a new map by the count the peer sent, so a few hostile
		// bytes could demand gigabytes. The first pass discards the value,
		// walking every map entry on the wire: after it each count is
		// backed by bytes of the body. It also takes in the body's type
		// definitions, so the second pass decodes the value message alone.
		r.src.Reset(b)
		err := r.dec.DecodeValue(reflect.Value{})
		if err == nil && r.src.Len() != 0 {
			err = errTrailingBytes
		}
		if err == nil {
			r.src.Reset(lastGobMessage(b))
			err = r.dec.Decode(f)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: kind %d: %w", errControlStream, buf[0], err)
		}
		f.Kind = frameKind(buf[0]) // outer kind byte is authoritative
	default:
		return nil, fmt.Errorf("dist: unknown frame kind %d", buf[0])
	}
	return f, nil
}

// lastGobMessage returns the last message of a gob stream segment: after
// a clean decode of one control frame body, the value that follows its
// type definitions. Each message is a gob uint byte count and that many
// bytes; a count under 128 is one byte, a larger one is its big-endian
// bytes after one byte holding their number, negated. Malformed framing
// yields nil, which then fails to decode.
func lastGobMessage(b []byte) []byte {
	var last []byte
	for len(b) > 0 {
		n, w := uint64(b[0]), 1
		if b[0] >= 0x80 {
			w += 256 - int(b[0])
			if w > 9 || w > len(b) {
				return nil
			}
			n = 0
			for _, c := range b[1:w] {
				n = n<<8 | uint64(c)
			}
		}
		if n > uint64(len(b)-w) {
			return nil
		}
		last, b = b[:w+int(n)], b[w+int(n):]
	}
	return last
}

// readWireFrame reads one length-prefixed frame from rd into a pooled
// buffer and decodes it. The returned cleanup recycles the buffer and is
// non-nil exactly when the frame (or its payload) may alias it. The body is
// read in bounded chunks so a hostile length prefix cannot force a large
// allocation ahead of actual stream contents. The first error is sticky:
// every later call returns it without reading.
func (r *frameReader) readWireFrame(rd io.Reader) (*frame, func(), error) {
	if r.err != nil {
		return nil, nil, r.err
	}
	f, rel, err := r.readFrame(rd)
	if err != nil {
		r.err = err
	}
	return f, rel, err
}

func (r *frameReader) readFrame(rd io.Reader) (*frame, func(), error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n <= 0 || n > maxFrameLen {
		return nil, nil, errFrameTooLarge
	}
	bp := getWireBuf()
	buf := *bp
	const chunk = 1 << 20
	for len(buf) < n {
		next := len(buf) + chunk
		if next > n {
			next = n
		}
		if cap(buf) < next {
			grown := make([]byte, len(buf), next)
			copy(grown, buf)
			buf = grown
		}
		if _, err := io.ReadFull(rd, buf[len(buf):next]); err != nil {
			*bp = buf[:0]
			putWireBuf(bp)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, nil, err
		}
		buf = buf[:next]
	}
	*bp = buf
	f, err := r.decodeFrame(buf)
	if err != nil {
		putWireBuf(bp)
		return nil, nil, err
	}
	if f.Kind == kindData {
		// Payload aliases the pooled buffer; hand ownership to the frame.
		rel := func() { putWireBuf(bp) }
		f.rel = rel
		return f, rel, nil
	}
	putWireBuf(bp)
	return f, nil, nil
}

// ---- Batched connection ----

// connMetrics are the optional tx-side instrumentation hooks of a conn.
type connMetrics struct {
	flushes        *obs.Counter   // dist.tx.flushes
	framesPerFlush *obs.Histogram // dist.tx.frames_per_flush
	frameBytes     *obs.Histogram // dist.tx.frame_bytes
	writevCalls    *obs.Counter   // dist.tx.writev_calls
	writevIovecs   *obs.Histogram // dist.tx.writev_iovecs (segments per vectored write)
	writevBytes    *obs.Counter   // dist.tx.writev_bytes
}

// smallFrameMax is the cutoff below which a frame's bytes are coalesced
// into a shared slab segment: for tiny acks and producer-done markers the
// memcpy is cheaper than burning an iovec (and, on partial writes, a
// retried syscall) per frame. Anything larger keeps its own pooled
// encode buffer and goes to the socket as its own iovec — zero intermediate
// copies between codec output and kernel.
const smallFrameMax = 2 << 10

// errConnClosed is the sticky write error after close/abort: frames sent to
// a torn-down connection fail deterministically instead of queueing into a
// writer that will never run again.
var errConnClosed = fmt.Errorf("dist: connection closed")

// conn wraps a TCP connection with length-prefixed framing, a vectored
// batch writer drained by a per-connection flusher goroutine, and a frame
// reader. Senders encode binary-plane frames into pooled
// buffers outside any lock, then queue the finished segments under mu; the
// flusher hands the whole batch to writev (net.Buffers) in one syscall —
// large payload buffers travel from codec output to kernel with no
// intermediate memcpy, while bursts of small frames ride a shared slab
// segment. A batch-size cap (pendMax) blocks senders when the socket falls
// behind, standing in for the old bufio backpressure.
type conn struct {
	c  net.Conn
	br *bufio.Reader
	r  frameReader
	w  frameWriter

	// ctl is held from a control frame's encode to its queueing, so the
	// outbound gob stream's message order is the wire order.
	ctl sync.Mutex

	mu        sync.Mutex
	cond      *sync.Cond // signaled when pend drains or the conn fails
	pend      []*[]byte  // complete wire bytes (hdr+body), send order
	slab      *[]byte    // tail segment of pend accepting small frames; nil = none
	pendBytes int
	nSince    int // frames queued since the last flush
	werr      error

	// wmu serializes flushes: steal-order == write-order even when close()
	// races the flusher goroutine.
	wmu sync.Mutex

	slabCap int
	pendMax int

	kick chan struct{}
	stop chan struct{}
	once sync.Once

	m *connMetrics

	// fi is the process's fault injector; nil (the default) costs one
	// pointer comparison per recv. onClose fires once, from whichever of
	// close/abort runs first — workers use it to prune conn tracking.
	fi      *faults.Injector
	onClose func()
}

func newConn(c net.Conn, m *connMetrics) *conn {
	// The batch writer already coalesces small frames application-side, so
	// Nagle's algorithm on top would only delay flushed batches behind
	// unacknowledged data (adding RTT-scale latency to ack and end-of-work
	// markers). Disable it deliberately — this makes Go's default explicit
	// and keeps the batching policy in one place.
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	cn := &conn{
		c:       c,
		br:      bufio.NewReaderSize(c, defaultWireBuf),
		slabCap: defaultWireBuf,
		pendMax: 4 * defaultWireBuf,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		m:       m,
	}
	cn.cond = sync.NewCond(&cn.mu)
	go cn.flusher()
	return cn
}

// queueLocked appends one frame's wire bytes (hdr+body) to the pending
// batch. Callers hold mu. When owned is non-nil the callee may keep the
// pooled buffer as its own segment; owned == nil (duplicate deliveries from
// fault injection) forces a copy.
func (c *conn) queueLocked(buf []byte, owned *[]byte) {
	if len(buf) <= smallFrameMax {
		if c.slab == nil || len(*c.slab)+len(buf) > c.slabCap {
			sp := getWireBuf()
			c.pend = append(c.pend, sp)
			c.slab = sp
		}
		*c.slab = append(*c.slab, buf...)
		if owned != nil {
			putWireBuf(owned)
		}
	} else if owned != nil {
		c.pend = append(c.pend, owned)
		c.slab = nil // keep send order: later small frames need a fresh tail
	} else {
		sp := getWireBuf()
		*sp = append((*sp)[:0], buf...)
		c.pend = append(c.pend, sp)
		c.slab = nil
	}
	c.pendBytes += len(buf)
	c.nSince++
}

// stealLocked takes the pending batch for a flush. Callers hold mu.
func (c *conn) stealLocked() (segs []*[]byte, frames int) {
	segs, frames = c.pend, c.nSince
	c.pend, c.slab, c.pendBytes, c.nSince = nil, nil, 0, 0
	// Senders blocked on the pendMax cap can refill while the batch is on
	// its way to the socket.
	c.cond.Broadcast()
	return segs, frames
}

// flushPend writes the pending batch as one vectored syscall. wmu (held
// across steal+write) keeps concurrent callers — the flusher goroutine and
// close() — from reordering batches.
func (c *conn) flushPend() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	segs, frames := c.stealLocked()
	err := c.werr
	c.mu.Unlock()
	if len(segs) == 0 {
		return
	}
	if err == nil {
		bufs := make(net.Buffers, len(segs))
		total := 0
		for i, sp := range segs {
			bufs[i] = *sp
			total += len(*sp)
		}
		iovecs := len(bufs)
		// net.Buffers.WriteTo is writev on platforms that have it (Go
		// splits batches beyond IOV_MAX internally); one call per flush.
		_, err = bufs.WriteTo(c.c)
		if c.m != nil {
			c.m.flushes.Inc()
			c.m.framesPerFlush.Observe(float64(frames))
			c.m.writevCalls.Inc()
			c.m.writevIovecs.Observe(float64(iovecs))
			c.m.writevBytes.Add(int64(total))
		}
		if err != nil {
			c.fail(err)
		}
	}
	for _, sp := range segs {
		putWireBuf(sp)
	}
}

// fail makes err the connection's sticky write error unless one is already
// set, and wakes senders blocked on the batch cap.
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.werr == nil {
		c.werr = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// close tears the connection down and stops its flusher (idempotent). A
// best-effort bounded flush drains frames queued moments ago — a final
// kindShutdown or kindAbortDone must not die in the pending batch when the
// caller closes immediately after send. The write deadline is armed before
// the flush and fails any in-flight writev too, so close never blocks on a
// stuck peer beyond the bound (the old buffered writer could deadlock here:
// close waited on the write lock while the flusher held it inside a syscall
// that only the not-yet-set deadline could interrupt).
func (c *conn) close() {
	c.once.Do(func() {
		close(c.stop)
		_ = c.c.SetWriteDeadline(time.Now().Add(250 * time.Millisecond))
		c.flushPend()
		c.fail(errConnClosed)
		if c.onClose != nil {
			c.onClose()
		}
	})
	c.c.Close()
}

// abort hard-closes the connection without draining the pending batch —
// crash simulation and dead-host teardown, where queued frames must be
// lost the way a real process death would lose them.
func (c *conn) abort() {
	c.once.Do(func() {
		close(c.stop)
		c.mu.Lock()
		segs, _ := c.stealLocked()
		if c.werr == nil {
			c.werr = errConnClosed
		}
		c.mu.Unlock()
		for _, sp := range segs {
			putWireBuf(sp)
		}
		if c.onClose != nil {
			c.onClose()
		}
	})
	c.c.Close()
}

// setReadDeadline arms (d > 0) or clears (d <= 0) the read deadline on the
// underlying socket for the next recv.
func (c *conn) setReadDeadline(d time.Duration) {
	if d <= 0 {
		_ = c.c.SetReadDeadline(time.Time{})
		return
	}
	_ = c.c.SetReadDeadline(time.Now().Add(d))
}

// flusher drains the pending batch whenever senders go idle. Each send
// kicks it; by the time it runs, every frame of a burst queued meanwhile is
// in the batch and leaves in one vectored syscall. It exits on stop —
// close/abort fire it exactly once, so the goroutine never outlives the
// connection.
func (c *conn) flusher() {
	for {
		select {
		case <-c.kick:
			c.flushPend()
		case <-c.stop:
			return
		}
	}
}

// send frames and queues f. The call returns once the frame's wire bytes
// are in the pending batch; the flusher moves them to the socket (senders
// block at the batch-size cap, which exerts TCP backpressure upstream).
// Write errors are sticky: after a failure every subsequent send reports
// one. A control frame that fails to encode fails the connection too: the
// encoder may have written type descriptors the peer will never see.
func (c *conn) send(f *frame) error {
	control := f.Kind.control()
	if control {
		c.ctl.Lock()
		defer c.ctl.Unlock()
	}
	bp := getWireBuf()
	// Reserve the length prefix up front so the segment is one contiguous
	// iovec; patch it once the body size is known.
	buf := append((*bp)[:0], 0, 0, 0, 0)
	buf, err := c.w.appendFrame(buf, f)
	if err != nil {
		putWireBuf(bp)
		if control {
			c.fail(err)
		}
		return err
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	*bp = buf

	c.mu.Lock()
	for c.werr == nil && c.pendBytes >= c.pendMax {
		c.cond.Wait()
	}
	if err := c.werr; err != nil {
		c.mu.Unlock()
		putWireBuf(bp)
		return err
	}
	if f.dup {
		// Queue the copy first: queueing the original may hand its pooled
		// buffer over (or recycle it), after which buf's bytes are not ours.
		c.queueLocked(buf, nil)
	}
	c.queueLocked(buf, bp)
	c.mu.Unlock()
	if c.m != nil {
		c.m.frameBytes.Observe(float64(len(buf)))
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
	return nil
}

// errInjectedKill surfaces a fault-injected process kill to the reader that
// triggered it; by the time recv returns it, Worker.Kill has already
// hard-closed every connection.
var errInjectedKill = fmt.Errorf("dist: fault injection killed this process")

// recv reads and decodes the next frame. Data frames own a pooled wire
// buffer (released via decodePayload / frame.release); every other kind is
// fully decoded and the buffer recycled before returning. Errors are
// sticky, like send's.
func (c *conn) recv() (*frame, error) {
	f, _, err := c.r.readWireFrame(c.br)
	if err == nil && c.fi != nil {
		kill, stall := c.fi.FrameReceived(f.Kind == kindData)
		if kill {
			f.release()
			return nil, errInjectedKill
		}
		if stall > 0 {
			time.Sleep(stall) // wedged process: frame handling frozen
		}
	}
	return f, err
}
