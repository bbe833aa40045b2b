package sparse

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary serialization of CSR matrices, used to persist materialized
// reachable probability matrices (the offline materialization speedup of
// Section 4.6 of the paper). The format is a fixed little-endian layout:
//
//	magic "CSRM" | version u32 | rows u64 | cols u64 | nnz u64
//	rowPtr (rows+1 × u64) | colIdx (nnz × u64) | val (nnz × f64)

var (
	// ErrBadFormat marks a malformed or corrupted serialized matrix.
	ErrBadFormat = errors.New("sparse: bad matrix format")

	matrixMagic   = [4]byte{'C', 'S', 'R', 'M'}
	matrixVersion = uint32(1)
)

// WriteMatrix serializes m to w in the binary CSR format. The element
// arrays are encoded directly into the writer's buffer rather than through
// binary.Write, whose per-element reflection dominates bulk serialization.
func WriteMatrix(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(matrixMagic[:]); err != nil {
		return err
	}
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:4], matrixVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(m.rows))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(m.cols))
	binary.LittleEndian.PutUint64(hdr[20:28], uint64(m.nnz))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// The row pointers are the running entry count, whatever the pages;
	// the columns and values are each page's entries, page after page.
	var ptr [pageRows + 1]int
	if err := putWords(bw, ptr[:1], wordOfInt); err != nil {
		return err
	}
	off := 0
	for p := range m.pages {
		pg := &m.pages[p]
		n := len(pg.rowPtr) - 1
		for k := 1; k <= n; k++ {
			ptr[k] = off + pg.rowPtr[k] - pg.rowPtr[0]
		}
		if err := putWords(bw, ptr[1:n+1], wordOfInt); err != nil {
			return err
		}
		off = ptr[n]
	}
	for p := range m.pages {
		idx, _ := m.pages[p].entries()
		if err := putWords(bw, idx, wordOfInt); err != nil {
			return err
		}
	}
	for p := range m.pages {
		_, val := m.pages[p].entries()
		if err := putWords(bw, val, math.Float64bits); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func wordOfInt(x int) uint64 { return uint64(x) }

// putWords writes xs to bw as little-endian 64-bit words, encoding straight
// into bw's free buffer a buffer-full at a time.
func putWords[T int | float64](bw *bufio.Writer, xs []T, word func(T) uint64) error {
	for len(xs) > 0 {
		if bw.Available() < 8 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf := bw.AvailableBuffer()
		k := min(len(xs), cap(buf)/8)
		for _, x := range xs[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, word(x))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// ReadMatrix deserializes a matrix written by WriteMatrix, validating the
// structural invariants (monotone row pointers, in-range sorted columns) so
// a corrupted file cannot produce an inconsistent matrix.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	// A stream that tells its length (the snapshot decoder's bytes.Reader)
	// must hold what the header claims, so a corrupt header cannot make the
	// decoder allocate its claim.
	avail := -1
	if l, ok := r.(interface{ Len() int }); ok {
		avail = l.Len()
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadFormat, err)
	}
	if magic != matrixMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	var hdr [28]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadFormat, err)
	}
	if version := binary.LittleEndian.Uint32(hdr[0:4]); version != matrixVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	rows := binary.LittleEndian.Uint64(hdr[4:12])
	cols := binary.LittleEndian.Uint64(hdr[12:20])
	nnz := binary.LittleEndian.Uint64(hdr[20:28])
	const maxDim = 1 << 40 // sanity cap against absurd headers
	if rows > maxDim || cols > maxDim || nnz > maxDim {
		return nil, fmt.Errorf("%w: implausible dimensions %dx%d nnz=%d", ErrBadFormat, rows, cols, nnz)
	}
	if size := 32 + 8*(rows+1) + 16*nnz; avail >= 0 && uint64(avail) < size {
		return nil, fmt.Errorf("%w: header claims %d bytes, the stream holds %d", ErrBadFormat, size, avail)
	}
	m := &csr{rows: int(rows), cols: int(cols), page: page{
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, nnz),
		val:    make([]float64, nnz),
	}}
	// Decode the element arrays through one fixed scratch buffer: a
	// per-element binary.Read costs a reflection pass and an allocation,
	// which at millions of nonzeros dominates a warm boot.
	var scratch [1 << 14]byte
	readInts := func(dst []int, what string) error {
		for len(dst) > 0 {
			n := len(dst) * 8
			if n > len(scratch) {
				n = len(scratch)
			}
			if _, err := io.ReadFull(br, scratch[:n]); err != nil {
				return fmt.Errorf("%w: reading %s: %v", ErrBadFormat, what, err)
			}
			for i := 0; i < n/8; i++ {
				dst[i] = int(binary.LittleEndian.Uint64(scratch[i*8 : i*8+8]))
			}
			dst = dst[n/8:]
		}
		return nil
	}
	if err := readInts(m.rowPtr, "row pointers"); err != nil {
		return nil, err
	}
	if err := readInts(m.colIdx, "columns"); err != nil {
		return nil, err
	}
	for vals := m.val; len(vals) > 0; {
		n := len(vals) * 8
		if n > len(scratch) {
			n = len(scratch)
		}
		if _, err := io.ReadFull(br, scratch[:n]); err != nil {
			return nil, fmt.Errorf("%w: reading values: %v", ErrBadFormat, err)
		}
		for i := 0; i < n/8; i++ {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(scratch[i*8 : i*8+8]))
		}
		vals = vals[n/8:]
	}
	// Structural validation.
	if m.rowPtr[0] != 0 || m.rowPtr[len(m.rowPtr)-1] != int(nnz) {
		return nil, fmt.Errorf("%w: row pointer endpoints", ErrBadFormat)
	}
	for i := 1; i < len(m.rowPtr); i++ {
		if m.rowPtr[i] < m.rowPtr[i-1] {
			return nil, fmt.Errorf("%w: non-monotone row pointers", ErrBadFormat)
		}
	}
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if m.colIdx[k] < 0 || m.colIdx[k] >= m.cols {
				return nil, fmt.Errorf("%w: column %d out of range", ErrBadFormat, m.colIdx[k])
			}
			if k > m.rowPtr[r] && m.colIdx[k] <= m.colIdx[k-1] {
				return nil, fmt.Errorf("%w: unsorted columns in row %d", ErrBadFormat, r)
			}
		}
	}
	return m.matrix(), nil
}
