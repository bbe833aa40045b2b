package sparse

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// SpGEMM: every matrix-matrix product runs the one row-range kernel below
// (Gustavson's row-wise algorithm with a dense accumulator). A product is two
// passes over the same row ranges: the symbolic pass counts each output row's
// distinct columns, which sizes the output exactly; the numeric pass emits
// each row straight into its slice of that output. Every output entry adds
// its terms ascending over m's row, then ascending over b's row, whatever
// the range layout, so all entry points return bit-identical matrices.
// DESIGN §6 has the measurements behind the constants.
const (
	// parallelFlopThreshold is the multiply-add count from which MulCtx fans
	// out across cores; below it the fork/join costs more.
	parallelFlopThreshold = 1 << 15
	// A row of n distinct columns is put in column order by sweeping the
	// mark array when n·log2(n)·sweepFactor exceeds the matrix width (one
	// comparison level of a sort costs about six mark reads), by sorting
	// otherwise — and always by sorting up to sweepMinRow columns.
	sweepFactor = 6
	sweepMinRow = 12
	// pollFlops is how many multiply-adds a range does between context polls.
	pollFlops = 1 << 18
)

func swept(n, width int) bool {
	return n > sweepMinRow && n*bits.Len(uint(n))*sweepFactor > width
}

// mulScratch is one range's dense accumulator state, recycled through
// scratchPool. acc is all zero between rows; mark[c] == gen means column c
// already appeared in the current row (gen only grows, so marks left by an
// earlier product never collide, and nothing is cleared between uses); cols
// collects the row's distinct columns, with one slot of slack for the
// branch-free append.
type mulScratch struct {
	acc  []float64
	mark []int
	cols []int
	gen  int
}

var (
	scratchPool  sync.Pool
	scratchInUse atomic.Int64 // taken and not yet returned; tests assert 0
)

// getScratch takes a scratch at least width columns wide from the pool. One
// that is too narrow is dropped for a new one, so the pool converges on the
// widest operand in use. putScratch is never deferred: a panic mid-row must
// not pool a dirty accumulator.
func getScratch(width int) *mulScratch {
	scratchInUse.Add(1)
	s, ok := scratchPool.Get().(*mulScratch)
	if !ok || len(s.mark) < width {
		s = &mulScratch{acc: make([]float64, width), mark: make([]int, width), cols: make([]int, width+1)}
	}
	return s
}

func putScratch(s *mulScratch) {
	scratchPool.Put(s)
	scratchInUse.Add(-1)
}

// scatter is the inner loop of every product in this package: it adds
// x' * b for one sparse row x = (idx, val) into the accumulator (numeric) or
// only marks the columns it reaches (symbolic), and returns their number;
// the columns are s.cols[:n] in first-touch order. Each column's terms are
// added in ascending order of idx. The loop does not branch on whether a
// column is new to the row: that is a coin flip on these operands, and a
// misprediction costs more than the unconditional stores.
func (s *mulScratch) scatter(idx []int, val []float64, b *Matrix, numeric bool) int {
	if s.gen == math.MaxInt { // wrapped: every stale mark would collide from here on
		clear(s.mark)
		s.gen = 0
	}
	s.gen++
	gen, acc, mark, list := s.gen, s.acc, s.mark[:b.cols], s.cols
	n := 0
	for k, j := range idx {
		av := val[k]
		bIdx, bVal := b.row(j)
		bVal = bVal[:len(bIdx)]
		for kb, c := range bIdx {
			d := 0
			if mark[c] != gen {
				d = 1
			}
			mark[c] = gen
			list[n] = c // overwritten by the next column unless c was new
			n += d
			if numeric {
				acc[c] += av * bVal[kb]
			}
		}
	}
	return n
}

// Mul returns the product m * b, computed on the calling goroutine. Panics
// on shape mismatch.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	out, _ := m.mul(context.Background(), b, 1, recordMul)
	return out.matrix()
}

// MulParallel is Mul over up to workers goroutines (0 means GOMAXPROCS).
func (m *Matrix) MulParallel(b *Matrix, workers int) *Matrix {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out, _ := m.mul(context.Background(), b, workers, recordMul)
	return out.matrix()
}

// MulCtx is Mul, fanned out across cores when the product is large enough.
// It polls ctx between row blocks and returns its error once it is done, so
// a canceled request releases its cores mid-product.
func (m *Matrix) MulCtx(ctx context.Context, b *Matrix) (*Matrix, error) {
	out, err := m.mul(ctx, b, 0, recordMul)
	if err != nil {
		return nil, err
	}
	return out.matrix(), nil
}

// product is one a * b in flight; out is its one contiguous output.
type product struct {
	ctx   context.Context
	a, b  *Matrix
	out   csr
	fp    []int        // fp[r]: multiply-adds of rows [0, r)
	zeros atomic.Int64 // stored values that canceled to exactly zero
}

// mul is the SpGEMM driver. workers == 0 picks by flop count; record accounts
// the finished product (flops are counted once per product, not per pass).
func (m *Matrix) mul(ctx context.Context, b *Matrix, workers int, record func(flops, outNNZ int, parallel bool)) (*csr, error) {
	if m.cols != b.rows {
		panic(fmt.Sprintf("sparse: Mul shape mismatch %dx%d * %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	p := &product{ctx: ctx, a: m, b: b, fp: make([]int, m.rows+1),
		out: csr{rows: m.rows, cols: b.cols, page: page{rowPtr: make([]int, m.rows+1)}}}
	for r := 0; r < m.rows; r++ {
		p.fp[r+1] = p.fp[r]
		aIdx, _ := m.row(r)
		for _, j := range aIdx {
			p.fp[r+1] += b.RowNNZ(j)
		}
	}
	flops := p.fp[m.rows]
	if workers == 0 {
		workers = 1
		if flops >= parallelFlopThreshold {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	// Ranges hold equal flops, not equal row counts: reachable-probability
	// rows are as skewed as the degree distributions behind them. The cuts
	// of a few workers stay on the stack.
	var cutsBuf [16]int
	cuts := cutsBuf[:1]
	for w := 1; w < workers; w++ {
		if c := sort.SearchInts(p.fp, (flops*w+workers-1)/workers); c > cuts[len(cuts)-1] && c < m.rows {
			cuts = append(cuts, c)
		}
	}
	cuts = append(cuts, m.rows)

	out := &p.out
	if err := p.pass(cuts, false); err != nil {
		return nil, err
	}
	for r := 0; r < m.rows; r++ {
		out.rowPtr[r+1] += out.rowPtr[r]
	}
	out.colIdx = make([]int, out.rowPtr[m.rows])
	out.val = make([]float64, out.rowPtr[m.rows])
	if err := p.pass(cuts, true); err != nil {
		return nil, err
	}
	if p.zeros.Load() > 0 {
		out.dropZeros() // exact cancellation: rare, so compacted after the fact
	}
	record(flops, len(out.val), len(cuts) > 2)
	return out, nil
}

// pass runs one pass of the kernel over the ranges cuts[i]..cuts[i+1] — the
// first on the calling goroutine, every further one on its own — and returns
// the first error in range order once all of them have finished.
func (p *product) pass(cuts []int, numeric bool) error {
	if len(cuts) == 2 {
		return p.rows(cuts[0], cuts[1], numeric)
	}
	errs := make([]error, len(cuts)-1)
	var wg sync.WaitGroup
	for i := 1; i < len(errs); i++ {
		wg.Add(1)
		lo, hi := cuts[i], cuts[i+1]
		go func() {
			defer wg.Done()
			errs[i] = p.rows(lo, hi, numeric)
		}()
	}
	errs[0] = p.rows(cuts[0], cuts[1], numeric)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rows is the kernel over rows [lo, hi) of a * b. The symbolic pass (numeric
// false) stores each row's distinct-column count in out.rowPtr[r+1]; the
// numeric pass expects out.rowPtr prefix-summed and out.colIdx/out.val
// allocated, and fills the row's slice of both in ascending column order.
func (p *product) rows(lo, hi int, numeric bool) error {
	m, b, out, fp := p.a, p.b, &p.out, p.fp
	s := getScratch(b.cols)
	acc, mark, list := s.acc, s.mark[:b.cols], s.cols
	zeros := 0
	var err error
	nextPoll := fp[lo] + pollFlops
	for r := lo; r < hi; r++ {
		if fp[r] >= nextPoll {
			if err = p.ctx.Err(); err != nil {
				break
			}
			nextPoll = fp[r] + pollFlops
		}
		aCols, aVals := m.row(r)
		n := 0
		if len(aCols) == 1 {
			n = fp[r+1] - fp[r] // one row of b, scaled: no collisions
		} else if len(aCols) > 1 {
			n = s.scatter(aCols, aVals, b, numeric)
		}
		if !numeric {
			out.rowPtr[r+1] = n
			continue
		}
		cols := out.colIdx[out.rowPtr[r]:out.rowPtr[r+1]]
		vals := out.val[out.rowPtr[r]:out.rowPtr[r+1]]
		switch {
		case len(aCols) == 1:
			// One term per entry, already in column order. 0 + x is x bit for
			// bit (a -0 product is dropped either way), so this is the
			// accumulator's result without the accumulator — all of AFA, and
			// every N:1 relation's rows.
			bIdx, bVal := b.row(aCols[0])
			copy(cols, bIdx)
			for i, bv := range bVal {
				acc[cols[i]] = aVals[0] * bv
			}
		case swept(n, b.cols):
			n = 0
			for c, g := range mark {
				if g == s.gen {
					cols[n] = c
					n++
				}
			}
		default:
			copy(cols, list)
			slices.Sort(cols)
		}
		for i, c := range cols {
			if vals[i] = acc[c]; vals[i] == 0 {
				zeros++
			}
			acc[c] = 0
		}
	}
	putScratch(s)
	p.zeros.Add(int64(zeros))
	return err
}

// MulMatEach calls visit(c, x) for every column c that a stored entry of v
// reaches in m, with x = (v' * m)[c] — each x bit for bit the entry MulMat
// computes (terms added in ascending order of v's indices), but nothing is
// built, put in column order or zero-filtered: columns arrive in first-touch
// order, once each, and an x that canceled to zero is still visited. The
// accumulator is pooled kernel scratch, so a call allocates nothing. This is
// the transposed top-k scan: v a source's middle distribution, m the
// transposed right chain, the visit one candidate target.
func (v *Vector) MulMatEach(m *Matrix, visit func(c int, x float64)) {
	if v.n != m.rows {
		panic("sparse: MulMatEach length mismatch")
	}
	s := getScratch(m.cols)
	n := s.scatter(v.idx, v.val, m, true)
	for _, c := range s.cols[:n] {
		x := s.acc[c]
		s.acc[c] = 0
		visit(c, x)
	}
	putScratch(s)
}
