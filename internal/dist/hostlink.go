package dist

import (
	"sync"
	"sync/atomic"
	"time"
)

// hostLink is the coordinator's control-plane attachment to one worker: the
// connection plus a reader goroutine that separates liveness (heartbeats,
// tracked in lastBeat) from protocol replies, and a sender goroutine that
// heartbeats the worker so its control-read deadline never fires while the
// coordinator is merely busy with other hosts.
type hostLink struct {
	host  string
	c     *conn
	reply chan *frame // non-heartbeat frames, in arrival order
	errc  chan error  // reader termination cause (capacity 1)

	// lastBeat is the wall clock (unix nanos) of the last frame of any
	// kind — real replies count as liveness too.
	lastBeat atomic.Int64
	// over is set when the worker sent its session's last frame
	// (kindAbortDone or kindShutdownDone). The worker hangs up next and its
	// heartbeats stop: the end of the session, not a death, so the liveness
	// sweep passes the link by and the reader reports no error.
	over atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once

	// dead is the coordinator's verdict on this host; only the coordinator
	// run loop reads and writes it (no concurrent access).
	dead bool

	// misses counts consecutive heartbeat intervals of silence, accumulated
	// across liveness sweeps (coordinator run loop only).
	misses int
}

func newHostLink(host string, c *conn, hbInterval time.Duration) *hostLink {
	l := &hostLink{
		host:  host,
		c:     c,
		reply: make(chan *frame, 8),
		errc:  make(chan error, 1),
		stop:  make(chan struct{}),
	}
	l.lastBeat.Store(time.Now().UnixNano())
	go l.readLoop()
	go l.beatLoop(hbInterval)
	return l
}

// readLoop pumps frames off the connection until it errors or the link is
// stopped. A blocked handoff also selects stop, so a reader holding a stale
// reply can never outlive its link.
func (l *hostLink) readLoop() {
	for {
		f, err := l.c.recv()
		if err != nil {
			select {
			case l.errc <- err:
			default:
			}
			return
		}
		l.lastBeat.Store(time.Now().UnixNano())
		if f.Kind == kindHeartbeat {
			continue
		}
		last := f.Kind == kindAbortDone || f.Kind == kindShutdownDone
		if last {
			l.over.Store(true)
		}
		select {
		case l.reply <- f:
		case <-l.stop:
			return
		}
		if last {
			return
		}
	}
}

func (l *hostLink) beatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if l.c.send(&frame{Kind: kindHeartbeat}) != nil {
				return
			}
		case <-l.stop:
			return
		}
	}
}

// shutdown stops the link's goroutines and closes the connection gracefully
// (buffered farewell frames get a bounded flush).
func (l *hostLink) shutdown() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.c.close()
}

// sever hard-closes a dead host's link; nothing in its write buffer is
// worth the wait.
func (l *hostLink) sever() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.c.abort()
}
