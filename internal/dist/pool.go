package dist

import "sync"

// Pool lends control connections across runs (DESIGN.md §13, "Control-link
// lifecycle"). A round that ended with a plain kindShutdown, confirmed, in
// a run not cancelled, leaves its links idle here by worker address; a
// later round sets up on them with no dial, and their gob streams already
// carry the control frames' type descriptors. Peer connections are never
// pooled. A nil *Pool keeps nothing: each round dials, as Run does.
type Pool struct {
	mu   sync.Mutex
	idle map[string][]*conn // nil once closed
}

// maxIdleLinks caps a Pool's idle links per worker address: twice the jobs
// a default job server runs at once.
const maxIdleLinks = 8

// NewPool returns an empty pool. Close it when its runs are over.
func NewPool() *Pool { return &Pool{idle: map[string][]*conn{}} }

// get borrows an idle link to addr, or returns nil.
func (p *Pool) get(addr string) *conn {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.idle[addr]
	if len(cs) == 0 {
		return nil
	}
	p.idle[addr] = cs[:len(cs)-1]
	return cs[len(cs)-1]
}

// put keeps a link whose session ended cleanly; a nil, closed or full pool
// closes it.
func (p *Pool) put(addr string, c *conn) {
	if p != nil {
		p.mu.Lock()
		if p.idle != nil && len(p.idle[addr]) < maxIdleLinks {
			p.idle[addr], c = append(p.idle[addr], c), nil
		}
		p.mu.Unlock()
	}
	if c != nil {
		c.close()
	}
}

// Drop closes the idle links to addr: its worker is gone, quarantined or
// moved. Links on loan are not affected.
func (p *Pool) Drop(addr string) {
	p.mu.Lock()
	cs := p.idle[addr]
	delete(p.idle, addr)
	p.mu.Unlock()
	for _, c := range cs {
		c.close()
	}
}

// Close closes every idle link, and each link on loan when its round ends.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, cs := range idle {
		for _, c := range cs {
			c.close()
		}
	}
}
