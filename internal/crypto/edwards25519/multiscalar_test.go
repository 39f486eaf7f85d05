package edwards25519

import (
	"crypto/rand"
	"testing"
)

func randomScalar(t testing.TB) *Scalar {
	t.Helper()
	var wide [64]byte
	if _, err := rand.Read(wide[:]); err != nil {
		t.Fatal(err)
	}
	s, err := NewScalar().SetUniformBytes(wide[:])
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVarTimeMultiScalarBaseMult cross-checks the multiscalar primitive
// against the reference computed term by term with ScalarBaseMult and
// ScalarMult.
func TestVarTimeMultiScalarBaseMult(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 33} {
		b := randomScalar(t)
		scalars := make([]*Scalar, n)
		points := make([]*Point, n)
		want := new(Point).ScalarBaseMult(b)
		for i := range scalars {
			scalars[i] = randomScalar(t)
			points[i] = new(Point).ScalarBaseMult(randomScalar(t))
			want.Add(want, new(Point).ScalarMult(scalars[i], points[i]))
		}
		got := new(Point).VarTimeMultiScalarBaseMult(b, scalars, points)
		if got.Equal(want) != 1 {
			t.Fatalf("n=%d: multiscalar result diverges from term-by-term sum", n)
		}
	}
}

// TestVarTimeMultiScalarBaseMultIdentity checks the degenerate inputs the
// batch verifier's equation relies on: all-zero scalars must yield the
// identity.
func TestVarTimeMultiScalarBaseMultIdentity(t *testing.T) {
	zero := NewScalar()
	p := new(Point).ScalarBaseMult(randomScalar(t))
	got := new(Point).VarTimeMultiScalarBaseMult(zero, []*Scalar{zero, zero}, []*Point{p, p})
	if got.Equal(NewIdentityPoint()) != 1 {
		t.Fatal("zero combination is not the identity")
	}
}

func TestVarTimeMultiScalarBaseMultMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slice lengths did not panic")
		}
	}()
	new(Point).VarTimeMultiScalarBaseMult(NewScalar(), []*Scalar{NewScalar()}, nil)
}
