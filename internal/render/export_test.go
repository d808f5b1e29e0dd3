package render

import (
	"fmt"
	"io"
)

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// WritePPM encodes the image as a binary PPM (P6), handy when no PNG
// viewer is around.
func (im *Image) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	buf := make([]byte, 0, im.W*im.H*3)
	for _, c := range im.Pix {
		buf = append(buf, to8(c[0]), to8(c[1]), to8(c[2]))
	}
	_, err := w.Write(buf)
	return err
}
