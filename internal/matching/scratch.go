package matching

import "math"

// Weights supplies the pairwise similarity matrix of a matching computation
// one row at a time: Row writes the weights of the edges between left
// element i and the right elements into dst. A source that knows which
// right elements can score at all — token-based similarities read that off
// the inverted index — zeroes the row and writes only those cells; a source
// that does not calls its kernel once per cell. Implementations backed by a
// struct pointer let callers run verification with zero per-pair
// allocations (a func value closing over the pair would allocate).
type Weights interface {
	// Row fills dst, which has one cell per right element in the matrix,
	// and must write every cell. With a nil remap that is every right
	// element, in order. Otherwise the §5.3 reduction has matched some
	// away: remap has one entry per right element, remap[j] is j's cell in
	// dst, and a negative entry means j is not in the matrix.
	Row(i int, remap []int32, dst []float64)
}

// simFunc adapts a plain function to Weights for the package's convenience
// entry points: one call per cell.
type simFunc func(i, j int) float64

func (f simFunc) Row(i int, remap []int32, dst []float64) {
	if remap == nil {
		for j := range dst {
			dst[j] = f(i, j)
		}
		return
	}
	for j, k := range remap {
		if k >= 0 {
			dst[k] = f(i, j)
		}
	}
}

// matrixRows serves an already materialized matrix.
type matrixRows [][]float64

func (w matrixRows) Row(i int, _ []int32, dst []float64) { copy(dst, w[i]) }

// Scratch owns every reusable buffer of matching computations: the flat
// weight matrix, the Hungarian algorithm's potentials and augmenting-path
// state, and the reduction's key grouping tables. A worker that keeps one
// Scratch across verifications performs no per-pair heap allocations in
// steady state (buffers grow monotonically to the largest pair seen). A
// Scratch is not safe for concurrent use; create one per worker. The zero
// value is ready to use.
type Scratch struct {
	// Flat weight matrix, row-major with stride cols (nS).
	w []float64
	// Hungarian state, 1-based like the textbook formulation.
	u, v, minv []float64
	p, way     []int32
	used       []bool
	// rowTo[i] is the column matched to row i after solve (solver-side
	// orientation, rows = min side).
	rowTo []int32
	// Reduction scratch: an open-addressing key→stack table over the
	// right side plus the surviving index lists.
	tblKey, tblHead []int32
	chain           []int32
	usedS           []bool
	leftRest        []int32
	// remap[j] is right element j's column in the reduced matrix, or -1.
	remap []int32
}

// Score computes the maximum-weight bipartite matching score between nR and
// nS elements, reusing the scratch's buffers. The matrix is filled a row at
// a time by wts and then solved whole, so a source that writes only the
// cells that can score produces the very matrix a cell-by-cell source does,
// and the same score bit for bit.
func (sc *Scratch) Score(nR, nS int, wts Weights) float64 {
	if nR == 0 || nS == 0 {
		return 0
	}
	sc.fill(nR, nil, nS, nil, wts)
	return sc.solve(nR, nS)
}

// fill materializes the weight matrix into the scratch, row-major: row k is
// wts' row rows[k] (row k when rows is nil) over the nC columns remap keeps
// (see Weights.Row). It is the one way weights reach the solver.
//
//silkmoth:hotpath
func (sc *Scratch) fill(nR int, rows []int32, nC int, remap []int32, wts Weights) {
	sc.w = growFloats(sc.w, nR*nC)
	for k := 0; k < nR; k++ {
		i := k
		if rows != nil {
			i = int(rows[k])
		}
		wts.Row(i, remap, sc.w[k*nC:(k+1)*nC])
	}
}

// ScoreReduced computes the maximum matching score with the §5.3
// identical-element reduction, comparing interned integer keys instead of
// strings: keyR[i] and keyS[j] are exact content keys (dataset.Element.Key);
// two elements are identical iff their keys are equal and non-negative. A
// negative key marks an element that can never be reduced. Identical pairs
// are matched outright (score 1 each) and the O(n³) matching runs only on
// the remainder: wts fills the rows of the unreduced left elements over the
// columns of the unreduced right ones (Weights.Row's remap).
//
// The caller remains responsible for only using this when 1-φ satisfies the
// triangle inequality and α = 0 (paper §6.5).
func (sc *Scratch) ScoreReduced(keyR, keyS []int32, wts Weights) float64 {
	nR, nS := len(keyR), len(keyS)

	// Group right elements by key: per key a LIFO stack of indices (head =
	// largest j), via an open-addressing table plus an index chain. The
	// stack order reproduces the historical pairing exactly (each left
	// element consumes the largest unconsumed identical right index);
	// identical keys mean identical elements, so any pairing yields the
	// same score, but keeping the order bit-stable keeps refactors
	// trivially diffable.
	tbl := tableSize(nS)
	sc.tblKey = growInt32(sc.tblKey, tbl)
	sc.tblHead = growInt32(sc.tblHead, tbl)
	for i := 0; i < tbl; i++ {
		sc.tblKey[i] = -1
	}
	sc.chain = growInt32(sc.chain, nS)
	sc.usedS = growBools(sc.usedS, nS)
	mask := int32(tbl - 1)
	for j := 0; j < nS; j++ {
		sc.usedS[j] = false
		k := keyS[j]
		if k < 0 {
			continue
		}
		slot := sc.findSlot(k, mask)
		if sc.tblKey[slot] < 0 {
			sc.tblKey[slot] = k
			sc.chain[j] = -1
		} else {
			sc.chain[j] = sc.tblHead[slot]
		}
		sc.tblHead[slot] = int32(j)
	}

	identical := 0
	sc.leftRest = sc.leftRest[:0]
	for i := 0; i < nR; i++ {
		k := keyR[i]
		if k >= 0 {
			slot := sc.findSlot(k, mask)
			if sc.tblKey[slot] == k && sc.tblHead[slot] >= 0 {
				j := sc.tblHead[slot]
				sc.tblHead[slot] = sc.chain[j]
				sc.usedS[j] = true
				identical++
				continue
			}
		}
		sc.leftRest = append(sc.leftRest, int32(i))
	}
	sc.remap = growInt32(sc.remap, nS)
	rr := 0
	for j := 0; j < nS; j++ {
		if sc.usedS[j] {
			sc.remap[j] = -1
			continue
		}
		sc.remap[j] = int32(rr)
		rr++
	}

	score := float64(identical)
	lr := len(sc.leftRest)
	if lr == 0 || rr == 0 {
		return score
	}
	sc.fill(lr, sc.leftRest, rr, sc.remap, wts)
	return score + sc.solve(lr, rr)
}

// findSlot probes the key table for k, returning its slot or the first
// empty one. The table is sized ≥ 2× occupancy, so probing terminates.
func (sc *Scratch) findSlot(k, mask int32) int32 {
	slot := int32(uint32(k)*0x9E3779B1) & mask
	for sc.tblKey[slot] >= 0 && sc.tblKey[slot] != k {
		slot = (slot + 1) & mask
	}
	return slot
}

// tableSize returns the power-of-two open-addressing table size for n keys.
func tableSize(n int) int {
	t := 8
	for t < 2*n {
		t <<= 1
	}
	return t
}

// solve runs the Jonker-Volgenant style Hungarian algorithm over the
// scratch's flat nR×nS weight matrix (row-major, stride nS), returning the
// maximum matching score. When nR > nS the matrix is walked transposed so
// the smaller side is always fully assigned. It also leaves the solver-side
// assignment in sc.rowTo for Assign. The arithmetic — including iteration
// order, the cost transform cost = maxW - w, and the potential updates — is
// kept identical to the historical [][]float64 implementation so scores are
// bit-stable across the refactor.
func (sc *Scratch) solve(nR, nS int) float64 {
	stride := nS
	rows, cols := nR, nS
	transposed := false
	if rows > cols {
		rows, cols = cols, rows
		transposed = true
	}

	maxW := 0.0
	for _, x := range sc.w[:nR*nS] {
		if x > maxW {
			maxW = x
		}
		if x < 0 {
			panic("matching: negative weight")
		}
	}

	const inf = math.MaxFloat64
	sc.u = growFloats(sc.u, rows+1)
	sc.v = growFloats(sc.v, cols+1)
	sc.minv = growFloats(sc.minv, cols+1)
	sc.p = growInt32(sc.p, cols+1)
	sc.way = growInt32(sc.way, cols+1)
	sc.used = growBools(sc.used, cols+1)
	for i := 0; i <= rows; i++ {
		sc.u[i] = 0
	}
	for j := 0; j <= cols; j++ {
		sc.v[j] = 0
		sc.p[j] = 0
		sc.way[j] = 0
	}

	at := func(i, j int) float64 {
		if transposed {
			return sc.w[j*stride+i]
		}
		return sc.w[i*stride+j]
	}

	for i := 1; i <= rows; i++ {
		sc.p[0] = int32(i)
		j0 := 0
		for j := 0; j <= cols; j++ {
			sc.minv[j] = inf
			sc.used[j] = false
		}
		for {
			sc.used[j0] = true
			i0 := int(sc.p[j0])
			delta := inf
			j1 := -1
			for j := 1; j <= cols; j++ {
				if sc.used[j] {
					continue
				}
				cur := maxW - at(i0-1, j-1) - sc.u[i0] - sc.v[j]
				if cur < sc.minv[j] {
					sc.minv[j] = cur
					sc.way[j] = int32(j0)
				}
				if sc.minv[j] < delta {
					delta = sc.minv[j]
					j1 = j
				}
			}
			for j := 0; j <= cols; j++ {
				if sc.used[j] {
					sc.u[sc.p[j]] += delta
					sc.v[j] -= delta
				} else {
					sc.minv[j] -= delta
				}
			}
			j0 = j1
			if sc.p[j0] == 0 {
				break
			}
		}
		for {
			j1 := sc.way[j0]
			sc.p[j0] = sc.p[j1]
			j0 = int(j1)
			if j0 == 0 {
				break
			}
		}
	}

	sc.rowTo = growInt32(sc.rowTo, rows)
	for i := 0; i < rows; i++ {
		sc.rowTo[i] = 0
	}
	for j := 1; j <= cols; j++ {
		if sc.p[j] != 0 {
			sc.rowTo[sc.p[j]-1] = int32(j - 1)
		}
	}

	score := 0.0
	for i := 0; i < rows; i++ {
		score += at(i, int(sc.rowTo[i]))
	}
	return score
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
