// Package matching implements maximum-weight bipartite matching, the |R ∩̃ S|
// computation at the heart of SilkMoth's relatedness metrics (paper §2.1),
// plus the triangle-inequality reduction of §5.3 and an exhaustive oracle
// used by tests. The solver itself lives in Scratch (scratch.go); the
// functions here are the allocation-per-call convenience forms.
//
// A computation has two halves. Scratch.fill materializes the weight matrix
// — the one place weights enter, a row at a time through Weights.Row, over
// all right elements or over the ones the reduction left — and
// Scratch.solve runs the Hungarian algorithm on the whole matrix. How a row
// is produced is the caller's business: package core fills it with one
// kernel call per cell for edit similarities, un-indexed sets and the
// brute-force oracle, and from the inverted index's overlap counts,
// touching only the cells that can be non-zero, for token-based
// similarities. solve does not know the difference: the matrix is the same
// cell for cell, so the score is the same bit for bit.
package matching

// MaxWeightScore returns the score of the maximum-weight bipartite matching
// of the weight matrix w, where w[i][j] ≥ 0 is the weight of the edge between
// left vertex i and right vertex j. Each vertex is matched at most once.
//
// Because weights are non-negative, some maximum-weight matching saturates
// the smaller side, so the problem reduces to the rectangular assignment
// problem, solved with the Jonker-Volgenant style Hungarian algorithm in
// O(n²·m) time for n = min rows, m = max (Scratch.solve).
func MaxWeightScore(w [][]float64) float64 {
	_, score := Assign(w)
	return score
}

// Assign solves the same problem as MaxWeightScore and additionally returns
// the assignment: for each left vertex i (row of w), assign[i] is the index
// of the matched right vertex, or -1 when w has more rows than columns and
// row i went unmatched. Edges of weight 0 in the returned assignment carry
// no score and may be treated as unmatched.
func Assign(w [][]float64) ([]int, float64) {
	n := len(w)
	if n == 0 {
		return nil, 0
	}
	m := len(w[0])
	if m == 0 {
		return make([]int, n), 0
	}

	var sc Scratch
	sc.fill(n, nil, m, nil, matrixRows(w))
	score := sc.solve(n, m)

	assign := make([]int, n)
	if n <= m {
		for i := 0; i < n; i++ {
			assign[i] = int(sc.rowTo[i])
		}
	} else {
		// Transposed solve: rowTo indexes original columns; rows beyond
		// the column count stay unmatched.
		for i := range assign {
			assign[i] = -1
		}
		for i := 0; i < m; i++ {
			assign[sc.rowTo[i]] = i
		}
	}
	return assign, score
}
