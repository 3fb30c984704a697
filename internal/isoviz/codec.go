package isoviz

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"datacutter/internal/geom"
	"datacutter/internal/render"
	"datacutter/internal/wirebin"
)

// Wire codecs for the dist payloads that cross hosts: triangle batches
// (E->Ra) and the two pixel-run shapes (Ra->M). Each is a count header
// plus bulk little-endian field data, encoded straight into the
// connection's pooled frame buffer. Append is the sender's last use of a
// payload (dist.PayloadCodec), so each encoder hands the storage it has
// just copied out back to the free lists (recycle.go). Registered in
// distfilters.go.
//
// Codec ids (dist reserves 1–255 for built-ins; applications start at 256;
// conformance uses 512).
const (
	codecTriBatch uint16 = 256
	codecPixBatch uint16 = 257
	codecZChunk   uint16 = 258
)

// The bulk encoders view []Triangle as the flat []float32 it is in memory
// (18 float32 per triangle: 3 positions + 3 normals) and []RGB as raw
// bytes. Guard the layout assumptions the views rely on.
func init() {
	if unsafe.Sizeof(geom.Triangle{}) != geom.TriangleBytes {
		panic("isoviz: geom.Triangle layout is padded; bulk codec invalid")
	}
	if unsafe.Sizeof(render.RGB{}) != 3 {
		panic("isoviz: render.RGB layout is padded; bulk codec invalid")
	}
}

const triFloats = geom.TriangleBytes / 4 // float32s per triangle

func triView(t []geom.Triangle) []float32 {
	if len(t) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&t[0])), triFloats*len(t))
}

func rgbView(c []render.RGB) []byte {
	if len(c) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), 3*len(c))
}

// triBatchCodec: u32 count | count×18 little-endian float32s.
type triBatchCodec struct{}

func (triBatchCodec) Append(dst []byte, v any) ([]byte, error) {
	b, ok := v.(TriBatch)
	if !ok {
		return nil, fmt.Errorf("isoviz: TriBatch codec got %T", v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Tris)))
	dst = wirebin.AppendFloat32s(dst, triView(b.Tris))
	triangles.put(b.Tris)
	return dst, nil
}

func (triBatchCodec) Decode(body []byte) (any, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("isoviz: TriBatch payload truncated")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if len(body)-4 != n*geom.TriangleBytes {
		return nil, fmt.Errorf("isoviz: TriBatch payload: %d bytes for %d triangles", len(body)-4, n)
	}
	tris := triangles.get(n)
	wirebin.Float32s(triView(tris), body[4:])
	return TriBatch{Tris: tris}, nil
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
