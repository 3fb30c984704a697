// Package core implements a DataCutter-style component framework: an
// application is decomposed into filters connected by unidirectional
// streams that carry fixed-size buffers. Filters can be transparently
// replicated — executed as multiple copies across hosts without the filter
// being aware of the replication — and the runtime distributes each
// produced buffer to one consumer copy set according to a configurable
// writer policy (round robin, weighted round robin, or demand driven).
//
// The package contains the engine-neutral model (Graph, Placement, Policy,
// Filter) and a real execution engine backed by goroutines and channels.
// The same model runs unchanged on a simulated heterogeneous cluster via
// internal/simrt.
package core

import "datacutter/internal/exec"

// The filter model's types live in internal/exec, beside the copy runtime
// that drives them (as the policy layer does, see policy.go); core
// re-exports them as true aliases — a core.Filter IS an exec.Filter — so
// application code keeps reading in paper vocabulary.

// Buffer is the unit of data carried by a stream: a fixed-size container
// written by a producer filter and consumed by exactly one copy of the
// consumer filter.
type Buffer = exec.Buffer

// Filter is a user-defined component, driven through work cycles of Init,
// Process (until all inputs reach end-of-work) and Finalize.
type Filter = exec.Filter

// ObserverSetter is the optional Filter extension for filters that own an
// instrumented subsystem.
type ObserverSetter = exec.ObserverSetter

// Ctx is the runtime interface handed to a filter copy, the same on every
// engine.
type Ctx = exec.Ctx

// BaseFilter provides no-op Init and Finalize.
type BaseFilter = exec.BaseFilter

// ErrCancelled is returned by Ctx.Write when the run has been aborted.
var ErrCancelled = exec.ErrCancelled

// Fuse runs two filters as one, the stream between them kept in memory; see
// exec.Fuse.
func Fuse(up, down Filter, stream string) Filter { return exec.Fuse(up, down, stream) }
