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
// the range layout, so all entry points return bit-identical matrices. A
// third pass, score, runs alone over the same ranges: it emits each row as
// the numeric pass does, but into scratch, and reduces it to a dot and a
// norm, so no product is stored.
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
// branch-free append. vals holds a scored row's values, made on the first
// score pass.
type mulScratch struct {
	acc  []float64
	mark []int
	cols []int
	vals []float64
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

// RowScores is a score pass's result. For row r of a product x = a * b,
// Dots[r] is v.DotEntries(x's row r) and Norms[r] is its WeightedNorm(d),
// bit for bit, for v and d finite.
type RowScores struct {
	Dots, Norms []float64
	Flops       int // multiply-adds the pass ran
	Entries     int // distinct (row, column) pairs scored, exact zeros included
}

// MulScore scores every row of m * b against v (length b's columns) and
// by d (nil, or one weight per column of b) without building the product:
// the driver, ranges, context polls and flop accounting of MulCtx, one
// pass, and nothing of the product's size allocated. It returns ctx's
// error if canceled mid-pass.
func (m *Matrix) MulScore(ctx context.Context, b *Matrix, v *Vector, d []float64) (RowScores, error) {
	return m.mulScore(ctx, b, v, d, 0)
}

func (m *Matrix) mulScore(ctx context.Context, b *Matrix, v *Vector, d []float64, workers int) (RowScores, error) {
	if v.n != b.cols || (d != nil && len(d) < b.cols) {
		panic(fmt.Sprintf("sparse: MulScore of %d columns by a vector of %d and %d weights", b.cols, v.n, len(d)))
	}
	p := m.start(ctx, b, workers)
	p.v, p.d = v, d
	p.scores = RowScores{Dots: make([]float64, m.rows), Norms: make([]float64, m.rows), Flops: p.fp[m.rows]}
	if err := p.pass(scoring); err != nil {
		return RowScores{}, err
	}
	p.scores.Entries = int(p.entries.Load())
	recordMul(p.scores.Flops, p.scores.Entries, len(p.cuts) > 2)
	return p.scores, nil
}

// ScoreRows is MulScore for the rows of m a selection picks: entry i scores
// m's row rows[i]. Nothing is multiplied, so no flops are counted.
func (m *Matrix) ScoreRows(rows []int, v *Vector, d []float64) RowScores {
	if v.n != m.cols || (d != nil && len(d) < m.cols) {
		panic(fmt.Sprintf("sparse: ScoreRows of %d columns by a vector of %d and %d weights", m.cols, v.n, len(d)))
	}
	out := RowScores{Dots: make([]float64, len(rows)), Norms: make([]float64, len(rows))}
	for i, r := range rows {
		idx, val := m.row(r)
		out.Dots[i], out.Norms[i] = v.DotEntries(idx, val), weightedNorm(idx, val, d)
		out.Entries += len(idx)
	}
	return out
}

// passKind is what one pass of the kernel does with a row.
type passKind uint8

const (
	symbolic passKind = iota // count its distinct columns
	numeric                  // emit it into the output
	scoring                  // reduce it to a dot and a norm
)

// product is one a * b in flight: its flop prefix and ranges, and what its
// passes write — out for a built product, scores for a scored one.
type product struct {
	ctx     context.Context
	a, b    *Matrix
	fp      []int // fp[r]: multiply-adds of rows [0, r)
	cuts    []int // range r is rows cuts[r]..cuts[r+1]
	cutsBuf [16]int
	out     csr
	zeros   atomic.Int64 // stored values that canceled to exactly zero
	v       *Vector
	d       []float64
	scores  RowScores
	entries atomic.Int64
}

// start lays out a * b: the flop prefix and the ranges. workers == 0 picks
// by flop count.
func (m *Matrix) start(ctx context.Context, b *Matrix, workers int) *product {
	if m.cols != b.rows {
		panic(fmt.Sprintf("sparse: Mul shape mismatch %dx%d * %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	p := &product{ctx: ctx, a: m, b: b, fp: make([]int, m.rows+1)}
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
	// of a few workers live in the product.
	p.cuts = p.cutsBuf[:1]
	for w := 1; w < workers; w++ {
		if c := sort.SearchInts(p.fp, (flops*w+workers-1)/workers); c > p.cuts[len(p.cuts)-1] && c < m.rows {
			p.cuts = append(p.cuts, c)
		}
	}
	p.cuts = append(p.cuts, m.rows)
	return p
}

// mul is the SpGEMM driver. workers == 0 picks by flop count; record accounts
// the finished product (flops are counted once per product, not per pass).
func (m *Matrix) mul(ctx context.Context, b *Matrix, workers int, record func(flops, outNNZ int, parallel bool)) (*csr, error) {
	p := m.start(ctx, b, workers)
	out := &p.out
	*out = csr{rows: m.rows, cols: b.cols, page: page{rowPtr: make([]int, m.rows+1)}}
	if err := p.pass(symbolic); err != nil {
		return nil, err
	}
	for r := 0; r < m.rows; r++ {
		out.rowPtr[r+1] += out.rowPtr[r]
	}
	out.colIdx = make([]int, out.rowPtr[m.rows])
	out.val = make([]float64, out.rowPtr[m.rows])
	if err := p.pass(numeric); err != nil {
		return nil, err
	}
	if p.zeros.Load() > 0 {
		out.dropZeros() // exact cancellation: rare, so compacted after the fact
	}
	record(p.fp[m.rows], len(out.val), len(p.cuts) > 2)
	return out, nil
}

// pass runs one pass of the kernel over the ranges — the first on the
// calling goroutine, every further one on its own — and returns the first
// error in range order once all of them have finished.
func (p *product) pass(kind passKind) error {
	cuts := p.cuts
	if len(cuts) == 2 {
		return p.run(cuts[0], cuts[1], kind)
	}
	errs := make([]error, len(cuts)-1)
	var wg sync.WaitGroup
	for i := 1; i < len(errs); i++ {
		wg.Add(1)
		lo, hi := cuts[i], cuts[i+1]
		go func() {
			defer wg.Done()
			errs[i] = p.run(lo, hi, kind)
		}()
	}
	errs[0] = p.run(cuts[0], cuts[1], kind)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run is one pass over rows [lo, hi).
func (p *product) run(lo, hi int, kind passKind) error {
	if kind == scoring {
		return p.scored(lo, hi)
	}
	return p.rows(lo, hi, kind == numeric)
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

// scored is the score pass over rows [lo, hi) of a * b. Each row is built
// as the numeric pass builds it — read in place from b when a's row has one
// entry, else scattered and put in column order — and emitted into scratch,
// where it is reduced to scores.Dots[r] and scores.Norms[r]. Its exact
// zeros, which a stored product drops, are ±0 terms of the dot and the norm
// and change neither's bits. It is a loop of its own so that the build
// passes' loop stays as tight as it was (folded into rows, the extra cases
// cost BenchmarkSpGEMM 10–20 %).
func (p *product) scored(lo, hi int) error {
	m, b, fp := p.a, p.b, p.fp
	s := getScratch(b.cols)
	if len(s.vals) < b.cols {
		s.vals = make([]float64, len(s.acc))
	}
	acc, mark, list := s.acc, s.mark[:b.cols], s.cols
	entries := 0
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
		var cols []int
		vals := s.vals[:0]
		switch {
		case len(aCols) == 1:
			bIdx, bVal := b.row(aCols[0])
			cols, vals = bIdx, s.vals[:len(bIdx)]
			for i, bv := range bVal[:len(bIdx)] {
				vals[i] = aVals[0] * bv
			}
		case len(aCols) > 1:
			n := s.scatter(aCols, aVals, b, true)
			cols, vals = list[:n], s.vals[:n]
			if swept(n, b.cols) {
				n = 0
				for c, g := range mark {
					if g == s.gen {
						cols[n] = c
						n++
					}
				}
			} else {
				slices.Sort(cols)
			}
			for i, c := range cols {
				vals[i], acc[c] = acc[c], 0
			}
		}
		p.scores.Dots[r], p.scores.Norms[r] = p.v.DotEntries(cols, vals), weightedNorm(cols, vals, p.d)
		entries += len(cols)
	}
	putScratch(s)
	p.entries.Add(int64(entries))
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
