package tensor

import "fmt"

// Mat is a dense row-major matrix: element (i,j) lives at Data[i*Cols+j].
type Mat struct {
	Rows, Cols int
	Data       Vec
}

// NewMat returns a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimensions")
	}
	return &Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores x at (i,j).
func (m *Mat) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero clears all elements.
func (m *Mat) Zero() { m.Data.Zero() }

// CopyFrom copies the contents of src; dimensions must match.
func (m *Mat) CopyFrom(src *Mat) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch (%dx%d vs %dx%d)",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// MulVecInto computes out = m * x (out length Rows, x length Cols). It
// runs four rows per pass over x; each row still sums its products in
// column order from +0, so out[i] equals m.Row(i).Dot(x) bit for bit.
func (m *Mat) MulVecInto(out, x Vec) {
	assertLen(len(x), m.Cols)
	assertLen(len(out), m.Rows)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(x)
	}
}

// MulVecTransInto computes out = m^T * x (out length Cols, x length Rows),
// accumulating x[i] * row i into out for every nonzero x[i] in row
// order. Four rows go per pass over out, each output still adding its
// terms in row order. A skipped term is an exact ±0 (for finite m), and
// an accumulator that starts at +0 never holds -0, so skipping never
// changes a bit of the result.
func (m *Mat) MulVecTransInto(out, x Vec) {
	assertLen(len(x), m.Rows)
	assertLen(len(out), m.Cols)
	out.Zero()
	var rows [4]int
	k := 0
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		rows[k] = i
		if k++; k < 4 {
			continue
		}
		k = 0
		a0, a1, a2, a3 := x[rows[0]], x[rows[1]], x[rows[2]], x[rows[3]]
		w0, w1, w2, w3 := m.Row(rows[0]), m.Row(rows[1]), m.Row(rows[2]), m.Row(rows[3])
		w0, w1, w2, w3 = w0[:len(out)], w1[:len(out)], w2[:len(out)], w3[:len(out)]
		for j, o := range out {
			o += a0 * w0[j]
			o += a1 * w1[j]
			o += a2 * w2[j]
			o += a3 * w3[j]
			out[j] = o
		}
	}
	for _, i := range rows[:k] {
		out.AXPY(x[i], m.Row(i))
	}
}

// AddOuter accumulates m += a * x y^T where x has length Rows and y length
// Cols. It is the rank-1 update used by backprop weight gradients.
func (m *Mat) AddOuter(a float64, x, y Vec) {
	assertLen(len(x), m.Rows)
	assertLen(len(y), m.Cols)
	for i := 0; i < m.Rows; i++ {
		s := a * x[i]
		if s == 0 {
			continue
		}
		row := m.Row(i)
		for j, yj := range y {
			row[j] += s * yj
		}
	}
}

// SumColsSparseInto computes out = m * x for a binary x whose ones sit
// at the column indices in active: the sum of those columns of m, added
// in the order active lists them. out must have length Rows.
func (m *Mat) SumColsSparseInto(out Vec, active []int) {
	assertLen(len(out), m.Rows)
	out.Zero()
	for _, j := range active {
		checkSparse(j, m.Cols)
		for i := 0; i < m.Rows; i++ {
			out[i] += m.Data[i*m.Cols+j]
		}
	}
}

// SumRowsSparseInto computes out = m^T * x for a binary x whose ones sit
// at the row indices in active: the sum of those rows of m, added in the
// order active lists them. Each row is contiguous, and four go per pass
// over out. out must have length Cols.
func (m *Mat) SumRowsSparseInto(out Vec, active []int) {
	assertLen(len(out), m.Cols)
	out.Zero()
	for ; len(active) >= 4; active = active[4:] {
		for _, j := range active[:4] {
			checkSparse(j, m.Rows)
		}
		r0, r1, r2, r3 := m.Row(active[0]), m.Row(active[1]), m.Row(active[2]), m.Row(active[3])
		r0, r1, r2, r3 = r0[:len(out)], r1[:len(out)], r2[:len(out)], r3[:len(out)]
		for i, o := range out {
			o += r0[i]
			o += r1[i]
			o += r2[i]
			o += r3[i]
			out[i] = o
		}
	}
	for _, j := range active {
		checkSparse(j, m.Rows)
		out.Add(m.Row(j))
	}
}

func checkSparse(j, n int) {
	if j < 0 || j >= n {
		panic(fmt.Sprintf("tensor: sparse index %d out of range [0,%d)", j, n))
	}
}
