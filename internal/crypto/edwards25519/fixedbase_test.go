package edwards25519

import (
	"bytes"
	"testing"
)

// TestNewFixedBaseTable checks every batch-inverted table entry against the
// one-inversion-per-entry nafLookupTable8.FromP3 of the same window base.
func TestNewFixedBaseTable(t *testing.T) {
	p := new(Point).ScalarBaseMult(randomScalar(t))
	table := NewFixedBaseTable(p)
	q := new(Point).Set(p)
	for w := 0; w < fixedBaseWindows; w++ {
		var want nafLookupTable8
		want.FromP3(q)
		for i := range want.points {
			got := &table.windows[w].points[i]
			if got.YplusX.Equal(&want.points[i].YplusX) != 1 ||
				got.YminusX.Equal(&want.points[i].YminusX) != 1 ||
				got.T2d.Equal(&want.points[i].T2d) != 1 {
				t.Fatalf("window %d entry %d differs from nafLookupTable8", w, i)
			}
		}
		for i := 0; i < 64; i++ {
			q.Add(q, q)
		}
	}
}

// TestVarTimeFixedBaseDoubleScalarMult cross-checks the fixed-base double
// scalar multiplication against VarTimeDoubleScalarBaseMult, on random
// scalars and edge scalars, for the basepoint, generic points and a point
// with a torsion component.
func TestVarTimeFixedBaseDoubleScalarMult(t *testing.T) {
	one, err := NewScalar().SetCanonicalBytes(append([]byte{1}, make([]byte, 31)...))
	if err != nil {
		t.Fatal(err)
	}
	minusOne := NewScalar().Subtract(NewScalar(), one)
	edges := []*Scalar{NewScalar(), one, minusOne}
	for trial := 0; trial < 16; trial++ {
		A := new(Point).ScalarBaseMult(randomScalar(t))
		switch trial {
		case 0:
			A = NewGeneratorPoint()
		case 1:
			// A key with a small-order component: (0, -1) has order 2.
			enc := append([]byte{0xec}, bytes.Repeat([]byte{0xff}, 30)...)
			T, err := new(Point).SetBytes(append(enc, 0x7f))
			if err != nil {
				t.Fatal(err)
			}
			A.Add(A, T)
		}
		table := NewFixedBaseTable(A)
		scalars := append([]*Scalar{randomScalar(t), randomScalar(t)}, edges...)
		for _, a := range scalars {
			for _, b := range scalars {
				want := new(Point).VarTimeDoubleScalarBaseMult(a, A, b)
				got := new(Point).VarTimeFixedBaseDoubleScalarMult(a, table, b)
				if got.Equal(want) != 1 {
					t.Fatalf("trial %d: fixed-base result diverges from VarTimeDoubleScalarBaseMult", trial)
				}
			}
		}
	}
}

var benchPoint *Point

func BenchmarkVarTimeDoubleScalarBaseMult(b *testing.B) {
	a, s := randomScalar(b), randomScalar(b)
	A := new(Point).ScalarBaseMult(randomScalar(b))
	p := new(Point)
	for b.Loop() {
		benchPoint = p.VarTimeDoubleScalarBaseMult(a, A, s)
	}
}

func BenchmarkVarTimeFixedBaseDoubleScalarMult(b *testing.B) {
	a, s := randomScalar(b), randomScalar(b)
	table := NewFixedBaseTable(new(Point).ScalarBaseMult(randomScalar(b)))
	basepointFixedBaseTable()
	p := new(Point)
	for b.Loop() {
		benchPoint = p.VarTimeFixedBaseDoubleScalarMult(a, table, s)
	}
}

var benchTable *FixedBaseTable

// BenchmarkNewFixedBaseTable is the one-off cost a registered key pays the
// first time it is used on the scalar verification path.
func BenchmarkNewFixedBaseTable(b *testing.B) {
	A := new(Point).ScalarBaseMult(randomScalar(b))
	for b.Loop() {
		benchTable = NewFixedBaseTable(A)
	}
}
