package render

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// WritePNG encodes the image as PNG: each channel quantized by to8 and
// stored as is (straight alpha), so decoding the file gives back to8 of
// every channel — and an opaque image (every alpha quantizes to 255),
// which every rendered frame is, is written as 8-bit RGB, the rest as
// 8-bit RGBA.
//
// Pixels are quantized straight into rows under the Up filter (each byte
// less the one above it), compressed at zlib's BestSpeed into one IDAT
// chunk, and the file goes to w in a single Write. The compressor and
// buffers are reused from a free list. Against image/png at BestSpeed,
// which stages an image.NRGBA and tries every filter on every row, the
// 50 orbit frames of the 64³ data set at 128² (2 CPUs, 20 interleaved
// encodes each) took a median 474 µs instead of 830 for volume rendering
// and 365 instead of 583 for ray tracing, and came out about 6 % larger:
// 3,272 B against 3,099 and 1,174 B against 1,109 on average.
func (im *Image) WritePNG(w io.Writer) error {
	if im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H {
		return errors.New("render: PNG of an empty or malformed image")
	}
	opaque := true
	for _, c := range im.Pix {
		if to8(c[3]) != 255 {
			opaque = false
			break
		}
	}
	bpp, colorType := 4, byte(6) // RGBA
	if opaque {
		bpp, colorType = 3, 2 // RGB
	}
	st := pngStates.Get()
	if st == nil {
		st = &pngState{}
	}
	defer func() {
		if st.out.Cap() > pngKeptBytes {
			st.out = bytes.Buffer{}
		}
		pngStates.Put(st)
	}()

	// The signature, IHDR, and the IDAT chunk's length (patched below)
	// and type lead the buffer; the zlib stream follows them.
	out := &st.out
	out.Reset()
	out.WriteString("\x89PNG\r\n\x1a\n\x00\x00\x00\x0dIHDR")
	ihdr := binary.BigEndian.AppendUint32(out.AvailableBuffer(), uint32(im.W))
	ihdr = binary.BigEndian.AppendUint32(ihdr, uint32(im.H))
	// Bit depth 8; compression, filter and interlace methods 0.
	out.Write(append(ihdr, 8, colorType, 0, 0, 0))
	endChunk(out, 8)
	idat := out.Len()
	out.WriteString("\x00\x00\x00\x00IDAT")
	if st.zw == nil {
		st.zw, _ = zlib.NewWriterLevel(out, zlib.BestSpeed) // the level is valid
	} else {
		st.zw.Reset(out)
	}

	n := bpp * im.W
	st.line = append(st.line[:0], make([]byte, 1+n)...)
	st.prev = append(st.prev[:0], make([]byte, n)...)
	line, prev := st.line, st.prev
	line[0] = 2 // Up
	for y := 0; y < im.H; y++ {
		row, f := im.Pix[y*im.W:(y+1)*im.W], line[1:]
		if opaque {
			for x, c := range row {
				i := 3 * x
				r, g, b := to8(c[0]), to8(c[1]), to8(c[2])
				f[i], f[i+1], f[i+2] = r-prev[i], g-prev[i+1], b-prev[i+2]
				prev[i], prev[i+1], prev[i+2] = r, g, b
			}
		} else {
			for x, c := range row {
				i := 4 * x
				r, g, b, a := to8(c[0]), to8(c[1]), to8(c[2]), to8(c[3])
				f[i], f[i+1], f[i+2], f[i+3] = r-prev[i], g-prev[i+1], b-prev[i+2], a-prev[i+3]
				prev[i], prev[i+1], prev[i+2], prev[i+3] = r, g, b, a
			}
		}
		if _, err := st.zw.Write(line); err != nil {
			return err
		}
	}
	if err := st.zw.Close(); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(out.Bytes()[idat:], uint32(out.Len()-idat-8))
	endChunk(out, idat)
	out.WriteString("\x00\x00\x00\x00IEND\xae\x42\x60\x82")
	_, err := w.Write(out.Bytes())
	return err
}

// endChunk appends the CRC of the chunk that starts at byte start of out
// (its type and data, after the 4-byte length).
func endChunk(out *bytes.Buffer, start int) {
	crc := crc32.ChecksumIEEE(out.Bytes()[start+4:])
	out.Write(binary.BigEndian.AppendUint32(out.AvailableBuffer(), crc))
}

// pngState is one encode's reusable state: the BestSpeed compressor
// (nearly all of an encode's allocation when built fresh), the file as it
// is assembled, and the row being filtered with the quantized row above.
type pngState struct {
	zw   *zlib.Writer
	out  bytes.Buffer
	line []byte
	prev []byte
}

// pngStates holds the writer state between encodes.
var pngStates FreeList[*pngState]

// pngKeptBytes bounds the file buffer a kept state holds on to: a served
// frame's file is a few kilobytes, and the buffer of a much larger image
// is left to the collector.
const pngKeptBytes = 1 << 20
