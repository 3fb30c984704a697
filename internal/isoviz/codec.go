package isoviz

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"datacutter/internal/geom"
	"datacutter/internal/render"
	"datacutter/internal/volume"
	"datacutter/internal/wirebin"
)

// Wire codecs for the dist payloads that cross hosts: chunk volumes (R->E),
// indexed triangle batches (E->Ra) and the two pixel-run shapes (Ra->M).
// Each is a count header plus bulk little-endian field data, encoded into
// the connection's pooled frame buffer. Append is the sender's last use of
// a payload (dist.PayloadCodec), so each encoder hands the storage it has
// copied out back to the free lists (recycle.go). Registered in
// distfilters.go.
//
// Codec ids (dist reserves 1–255 for built-ins; applications start at 256;
// conformance uses 512).
const (
	codecTriBatch   uint16 = 256
	codecPixBatch   uint16 = 257
	codecZChunk     uint16 = 258
	codecVoxelBlock uint16 = 259
)

// The bulk encoders view a mesh's vertex and index planes as the flat
// []float32 of 4-byte words they are in memory (wirebin moves words bit
// for bit, so a uint32 index survives the float32 view) and []RGB as raw
// bytes. Guard the layout assumptions the views rely on.
func init() {
	if unsafe.Sizeof(geom.Vec3{}) != 12 {
		panic("isoviz: geom.Vec3 layout is padded; bulk codec invalid")
	}
	if unsafe.Sizeof(render.RGB{}) != 3 {
		panic("isoviz: render.RGB layout is padded; bulk codec invalid")
	}
}

// words views a vertex or index plane as its 4-byte words.
func words[T geom.Vec3 | uint32](s []T) []float32 {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*float32)(unsafe.Pointer(&s[0])), int(unsafe.Sizeof(zero))/4*len(s))
}

func rgbView(c []render.RGB) []byte {
	if len(c) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), 3*len(c))
}

// triBatchCodec: u32 nverts | u32 nidx | nverts×3 f32 positions |
// nverts×3 f32 normals | nidx × u32 indices, all little-endian. A body
// whose length disagrees with its counts, whose nidx is not a multiple of
// 3, or with an index >= nverts is a decode error, so Ra never indexes out
// of range. The counts are checked against the body before anything is
// allocated.
type triBatchCodec struct{}

func (triBatchCodec) Append(dst []byte, v any) ([]byte, error) {
	b, ok := v.(TriBatch)
	if !ok {
		return nil, fmt.Errorf("isoviz: TriBatch codec got %T", v)
	}
	if len(b.N) != len(b.P) || len(b.Idx)%3 != 0 {
		return nil, fmt.Errorf("isoviz: TriBatch has %d positions, %d normals, %d indices", len(b.P), len(b.N), len(b.Idx))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.P)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Idx)))
	dst = wirebin.AppendFloat32s(dst, words(b.P))
	dst = wirebin.AppendFloat32s(dst, words(b.N))
	dst = wirebin.AppendFloat32s(dst, words(b.Idx))
	recycleMesh(b.Mesh)
	return dst, nil
}

func (triBatchCodec) Decode(body []byte) (any, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("isoviz: TriBatch payload truncated")
	}
	nv := uint64(binary.LittleEndian.Uint32(body))
	ni := uint64(binary.LittleEndian.Uint32(body[4:]))
	if uint64(len(body)-8) != 24*nv+4*ni {
		return nil, fmt.Errorf("isoviz: TriBatch payload: %d bytes for %d vertices and %d indices", len(body)-8, nv, ni)
	}
	if ni%3 != 0 {
		return nil, fmt.Errorf("isoviz: TriBatch payload: %d indices, not whole triangles", ni)
	}
	b := TriBatch{geom.Mesh{P: vertices.get(int(nv)), N: vertices.get(int(nv)), Idx: indices.get(int(ni))}}
	body = body[8:]
	body = body[4*wirebin.Float32s(words(b.P), body):]
	body = body[4*wirebin.Float32s(words(b.N), body):]
	wirebin.Float32s(words(b.Idx), body)
	for i, x := range b.Idx {
		if uint64(x) >= nv {
			recycleMesh(b.Mesh)
			return nil, fmt.Errorf("isoviz: TriBatch payload: index %d is %d, past %d vertices", i, x, nv)
		}
	}
	return b, nil
}

func (triBatchCodec) ZeroCopy() bool { return false }

// pixBatchCodec: u32 count | count × (i32 x | i32 y | f32 depth | r g b).
// Field-wise (render.Pixel has interior padding in memory), so the wire
// layout is exactly render.PixelBytes per pixel and platform-independent.
type pixBatchCodec struct{}

func (pixBatchCodec) Append(dst []byte, v any) ([]byte, error) {
	b, ok := v.(PixBatch)
	if !ok {
		return nil, fmt.Errorf("isoviz: PixBatch codec got %T", v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Pixels)))
	for i := range b.Pixels {
		p := &b.Pixels[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.X))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Y))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p.Depth))
		dst = append(dst, p.C.R, p.C.G, p.C.B)
	}
	pixels.put(b.Pixels)
	return dst, nil
}

func (pixBatchCodec) Decode(body []byte) (any, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("isoviz: PixBatch payload truncated")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if len(body)-4 != n*render.PixelBytes {
		return nil, fmt.Errorf("isoviz: PixBatch payload: %d bytes for %d pixels", len(body)-4, n)
	}
	px := pixels.get(n)
	b := body[4:]
	for i := range px {
		px[i] = render.Pixel{
			X:     int32(binary.LittleEndian.Uint32(b)),
			Y:     int32(binary.LittleEndian.Uint32(b[4:])),
			Depth: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
			C:     render.RGB{R: b[12], G: b[13], B: b[14]},
		}
		b = b[render.PixelBytes:]
	}
	return PixBatch{Pixels: px}, nil
}

func (pixBatchCodec) ZeroCopy() bool { return false }

// zChunkCodec: u32 off | u32 npix | npix little-endian f32 depths |
// u32 ncol | ncol × (r g b), with ncol = npix: one color per depth. A body
// whose pixels break the ZChunk invariant is ErrZChunkBehindClear.
type zChunkCodec struct{}

func (zChunkCodec) Append(dst []byte, v any) ([]byte, error) {
	z, ok := v.(ZChunk)
	if !ok {
		return nil, fmt.Errorf("isoviz: ZChunk codec got %T", v)
	}
	if len(z.Color) != len(z.Depth) {
		return nil, fmt.Errorf("isoviz: ZChunk has %d colors for %d depths", len(z.Color), len(z.Depth))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(z.Off))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(z.Depth)))
	dst = wirebin.AppendFloat32s(dst, z.Depth)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(z.Color)))
	dst = append(dst, rgbView(z.Color)...)
	depths.put(z.Depth)
	colors.put(z.Color)
	return dst, nil
}

func (zChunkCodec) Decode(body []byte) (any, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("isoviz: ZChunk payload truncated")
	}
	z := ZChunk{Off: int(binary.LittleEndian.Uint32(body))}
	np := int(binary.LittleEndian.Uint32(body[4:]))
	b := body[8:]
	if len(b) < 4*np+4 {
		return nil, fmt.Errorf("isoviz: ZChunk payload: %d bytes for %d depths", len(b), np)
	}
	nc := int(binary.LittleEndian.Uint32(b[4*np:]))
	if nc != np {
		return nil, fmt.Errorf("isoviz: ZChunk payload: %d colors for %d depths", nc, np)
	}
	if len(b)-4*np-4 != 3*nc {
		return nil, fmt.Errorf("isoviz: ZChunk payload: %d bytes for %d colors", len(b)-4*np-4, nc)
	}
	z.Depth = depths.get(np)
	wirebin.Float32s(z.Depth, b[:4*np])
	z.Color = colors.get(nc)
	copy(rgbView(z.Color), b[4*np+4:])
	if i := z.behindClear(); i >= 0 {
		err := fmt.Errorf("%w: depth %v, color %v at pixel %d", ErrZChunkBehindClear, z.Depth[i], z.Color[i], z.Off+i)
		depths.put(z.Depth)
		colors.put(z.Color)
		return nil, err
	}
	return z, nil
}

func (zChunkCodec) ZeroCopy() bool { return false }

// voxelBlockCodec: 10 × u32 (block X0 Y0 Z0 NX NY NZ GX GY GZ Index) |
// NX·NY·NZ f32 samples. A zero extent, a block outside its grid or a body
// whose length disagrees with its sample count fails before any allocation.
type voxelBlockCodec struct{}

func (voxelBlockCodec) Append(dst []byte, v any) ([]byte, error) {
	b, ok := v.(VoxelBlock)
	if !ok {
		return nil, fmt.Errorf("isoviz: VoxelBlock codec got %T", v)
	}
	k := b.V.Block
	if len(b.V.Data) != k.Samples() {
		return nil, fmt.Errorf("isoviz: VoxelBlock has %d samples for %v", len(b.V.Data), k)
	}
	for _, x := range [...]int{k.X0, k.Y0, k.Z0, k.NX, k.NY, k.NZ, k.GX, k.GY, k.GZ, k.Index} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	dst = wirebin.AppendFloat32s(dst, b.V.Data)
	recycleVolume(b.V)
	return dst, nil
}

func (voxelBlockCodec) Decode(body []byte) (any, error) {
	if len(body) < 40 {
		return nil, fmt.Errorf("isoviz: VoxelBlock payload truncated")
	}
	var h [10]int
	for i := range h {
		h[i] = int(binary.LittleEndian.Uint32(body[4*i:]))
	}
	for d := 0; d < 3; d++ {
		if h[3+d] == 0 || h[d]+h[3+d] > h[6+d] {
			return nil, fmt.Errorf("isoviz: VoxelBlock payload: block %v outside its grid %v", h[:6], h[6:9])
		}
	}
	body = body[40:]
	hi, n := bits.Mul64(uint64(h[3])*uint64(h[4]), uint64(h[5]))
	if hi != 0 || len(body)%4 != 0 || n != uint64(len(body)/4) {
		return nil, fmt.Errorf("isoviz: VoxelBlock payload: %d bytes for %d×%d×%d samples", len(body), h[3], h[4], h[5])
	}
	v := volume.Borrow(volume.Block{X0: h[0], Y0: h[1], Z0: h[2], NX: h[3], NY: h[4], NZ: h[5], GX: h[6], GY: h[7], GZ: h[8], Index: h[9]})
	wirebin.Float32s(v.Data, body)
	return VoxelBlock{V: v}, nil
}

func (voxelBlockCodec) ZeroCopy() bool { return false }
