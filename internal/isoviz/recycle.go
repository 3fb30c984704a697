package isoviz

import (
	"datacutter/internal/geom"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// Payload recycling. A frame moves chunk volumes (R->E), triangle batches
// (E->Ra: a vertex plane each for positions and normals, and an index
// plane) and pixel batches or z-buffer chunks (Ra->M). The rule is
// DataCutter's: a payload is the reading copy's until its next Read, and a
// producer never touches a buffer after Write — local copy-set queues and
// exec.Fuse pass it by reference. So the consumer that has finished a
// payload hands its storage back here, and the producers and wire decoders
// draw from these lists instead of allocating. On a dist TCP edge the
// consumer is the sender's codec: Append is a payload's last use there.
//
//	volumes    E after mcubes.ExtractMesh   -> Store.ReadChunk, FieldSource.Load
//	vertices,  Ra after DrawMesh,           -> meshPacker, TriBatch decoder
//	indices    TriBatch codec after Append
//	pixels     M after merging a PixBatch,  -> active-pixel flush, PixBatch decoder
//	           PixBatch codec after Append
//	depths,    M after merging a ZChunk,    -> Ra's z-buffer, M's accumulator,
//	colors     M's result at the next Init,    sendZBuffer, ZChunk decoder
//	           ZChunk codec after Append
//
// A z-buffer that fits one buffer travels as its own planes. M adopts the
// first such frame of a unit of work as its accumulator and keeps those
// planes as its result until the next unit of work's Init hands them back;
// it merges every other chunk and returns its planes at once. So on the
// z-buffer path every copy's planes cycle Ra -> M -> Ra without a copy, and
// on the active-pixel path M's accumulator reuses the previous result's.
var (
	vertices = make(freeList[geom.Vec3], 2*maxFree) // two planes per batch
	indices  = make(freeList[uint32], maxFree)
	pixels   = make(freeList[render.Pixel], maxFree)
	depths   = make(freeList[float32], maxFree)
	colors   = make(freeList[render.RGB], maxFree)
)

// maxFree bounds what each list pins; a full list drops what it is handed.
// A stream keeps about a dozen buffers in flight per session — a copy set's
// queue (exec.DefaultQueueCap, 8) plus one per copy reading or writing — and
// a list only fills to the most buffers returned and not yet reused; 32
// allocated no less on the bench's frames and pinned more.
const maxFree = 16

// freeList is a bounded list of idle slices. Like mcubes' idle walkers it is
// a buffered channel: safe for concurrent copies and sessions, and unlike a
// sync.Pool it survives garbage collections.
type freeList[T any] chan []T

// get returns a slice of length n: the first idle slice when it is large
// enough, else exactly n elements of new memory (the idle one, too small,
// is left to the collector, so the list drifts toward the sizes in use).
// The contents are unspecified; callers overwrite all n elements.
func (l freeList[T]) get(n int) []T {
	select {
	case s := <-l:
		if cap(s) >= n {
			return s[:n]
		}
	default:
	}
	return make([]T, n)
}

// put hands s back for reuse. The caller must hold the only reference.
func (l freeList[T]) put(s []T) {
	if cap(s) == 0 || !keep(s) {
		return
	}
	select {
	case l <- s:
	default:
	}
}

// recycleMesh hands a triangle batch's planes back to the free lists.
func recycleMesh(m geom.Mesh) {
	vertices.put(m.P)
	vertices.put(m.N)
	indices.put(m.Idx)
}

// recycleVolume hands a chunk volume back to volume.Borrow.
func recycleVolume(v *volume.Volume) {
	if keep(v) {
		volume.Recycle(v)
	}
}

// testHookRecycle, when set, sees each payload as it is handed back: tests
// poison it to prove nothing reads recycled storage, or return false to
// veto its reuse.
var testHookRecycle func(any) bool

// keep is generic so that storage becomes an interface — an allocation —
// only when a hook is set.
func keep[S any](storage S) bool { return testHookRecycle == nil || testHookRecycle(storage) }
