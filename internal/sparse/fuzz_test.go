package sparse

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzReadMatrix checks the binary matrix reader never panics and never
// accepts a structurally inconsistent matrix, and that whatever it accepts
// serializes back to the bytes it was read from, however it is paged.
func FuzzReadMatrix(f *testing.F) {
	rng := rand.New(rand.NewSource(44))
	multi := randomMatrix(rng, 2*pageRows+3, 5, 0.2)
	for _, m := range []*Matrix{
		FromDense([][]float64{{1, 0, 2}, {0, 3, 0}}),
		Zeros(0, 0),
		Zeros(pageRows+1, 2),
		multi,
		// Rebuilt pages beside shared ones, and a grown partial page.
		multi.SetCells(3*pageRows+9, 6, []Triplet{{pageRows, 5, 1}, {3 * pageRows, 0, 2}}),
	} {
		var buf bytes.Buffer
		if err := WriteMatrix(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A header that claims far more rows than the stream holds: rejected at
	// the stream's end, not allocated up front.
	lying := append([]byte("CSRM"), make([]byte, 28)...)
	binary.LittleEndian.PutUint32(lying[4:], matrixVersion)
	binary.LittleEndian.PutUint64(lying[8:], 1<<36)
	f.Add(lying)
	f.Add([]byte("CSRM"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMatrix(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must behave like a well-formed matrix.
		rows, cols := m.Dims()
		if rows < 0 || cols < 0 {
			t.Fatal("negative dims accepted")
		}
		// Every access within bounds must be safe, and a round trip must
		// reproduce the matrix.
		for r := 0; r < rows; r++ {
			_ = m.Row(r)
		}
		var out bytes.Buffer
		if err := WriteMatrix(&out, m); err != nil {
			t.Fatalf("accepted matrix does not serialize: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatal("round trip changed the bytes")
		}
		m2, err := ReadMatrix(&out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !m2.Equal(m) {
			t.Fatal("round trip changed matrix")
		}
	})
}
