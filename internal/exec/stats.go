package exec

import "sort"

// StreamStats aggregates traffic on one logical stream across a run.
type StreamStats struct {
	Buffers int64 // buffers transferred
	Bytes   int64 // payload bytes transferred
	Acks    int64 // acknowledgment messages sent (DD only)
	// PerTargetHost counts buffers delivered to each consumer copy set,
	// keyed by host name (the paper's Table 3 measurement).
	PerTargetHost map[string]int64
}

// FilterStats aggregates execution of one filter's copies across a run.
// The per-copy series are indexed by global copy index and summed over
// units of work; they grow with the copy set and never shrink, so a retired
// copy keeps its accumulated time.
type FilterStats struct {
	Copies int
	// BusySeconds is per-copy time spent inside Init, Process and Finalize
	// excluding time blocked reading from or writing to streams (compute
	// time).
	BusySeconds []float64
	// WallSeconds is per-copy total time inside Init, Process and Finalize.
	WallSeconds []float64
	// ReadBlockedSeconds / WriteBlockedSeconds are per-copy stream stall
	// times; a buffer's transfer time (modelled NIC occupation, a wire
	// send) counts as write-blocked.
	ReadBlockedSeconds  []float64
	WriteBlockedSeconds []float64
	BuffersIn           int64
	BuffersOut          int64
}

// Stats is the result of a run.
type Stats struct {
	Streams map[string]*StreamStats
	Filters map[string]*FilterStats
	// WallSeconds is total run time; PerUOWSeconds is per unit of work.
	// On the wall-clock engines these are wall-clock; on the simulated
	// engine they are virtual time.
	WallSeconds   float64
	PerUOWSeconds []float64
}

// NewStats allocates an empty Stats for a graph's filters and streams, the
// one shape every engine reports in.
func NewStats(filters []string, streams []StreamSpec) *Stats {
	st := &Stats{Streams: make(map[string]*StreamStats), Filters: make(map[string]*FilterStats)}
	for _, sp := range streams {
		st.Streams[sp.Name] = &StreamStats{PerTargetHost: make(map[string]int64)}
	}
	for _, f := range filters {
		st.Filters[f] = &FilterStats{}
	}
	return st
}

// StreamNames returns the stream names present in the stats, sorted.
func (s *Stats) StreamNames() []string {
	names := make([]string, 0, len(s.Streams))
	for n := range s.Streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// size sets a filter's current copy count and grows its per-copy series to
// cover it.
func (s *Stats) size(filter string, copies int) *FilterStats {
	fs := s.Filters[filter]
	fs.Copies = copies
	for len(fs.BusySeconds) < copies {
		fs.BusySeconds = append(fs.BusySeconds, 0)
		fs.WallSeconds = append(fs.WallSeconds, 0)
		fs.ReadBlockedSeconds = append(fs.ReadBlockedSeconds, 0)
		fs.WriteBlockedSeconds = append(fs.WriteBlockedSeconds, 0)
	}
	return fs
}

// Merge adds a fragment — one host's accounting of one unit of work — into
// s: stream totals add, per-copy series add index-wise. The distributed
// coordinator commits fragments this way once a unit of work has succeeded
// everywhere.
func (s *Stats) Merge(frag *Stats) {
	if frag == nil {
		return
	}
	for name, f := range frag.Streams {
		ss := s.Streams[name]
		if ss == nil {
			continue
		}
		ss.Buffers += f.Buffers
		ss.Bytes += f.Bytes
		ss.Acks += f.Acks
		for host, n := range f.PerTargetHost {
			ss.PerTargetHost[host] += n
		}
	}
	for name, f := range frag.Filters {
		fs := s.Filters[name]
		if fs == nil {
			continue
		}
		fs.Copies = f.Copies
		addSeries(&fs.BusySeconds, f.BusySeconds)
		addSeries(&fs.WallSeconds, f.WallSeconds)
		addSeries(&fs.ReadBlockedSeconds, f.ReadBlockedSeconds)
		addSeries(&fs.WriteBlockedSeconds, f.WriteBlockedSeconds)
		fs.BuffersIn += f.BuffersIn
		fs.BuffersOut += f.BuffersOut
	}
}

func addSeries(dst *[]float64, src []float64) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	for i, v := range src {
		(*dst)[i] += v
	}
}
