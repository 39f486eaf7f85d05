package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"testing"

	"zugchain/internal/crypto/edwards25519"
)

// smallOrderPoint returns a canonical non-identity small-order point of the
// curve: (0, -1), of order 2. Adding it to a signature's R commitment plants
// a torsion defect that the cofactorless ed25519.Verify equation rejects but
// a cofactorless *batch* equation would cancel whenever the random z
// coefficients happen to sum to 0 mod the point's order — the
// nondeterminism this package's cofactored equation exists to rule out.
func smallOrderPoint(t *testing.T) *edwards25519.Point {
	t.Helper()
	enc := make([]byte, 32)
	enc[0] = 0xec // little-endian p-1: y = -1, x = 0
	for i := 1; i < 31; i++ {
		enc[i] = 0xff
	}
	enc[31] = 0x7f
	p, err := new(edwards25519.Point).SetBytes(enc)
	if err != nil {
		t.Fatalf("decode small-order point: %v", err)
	}
	if p.Equal(edwards25519.NewIdentityPoint()) == 1 {
		t.Fatal("small-order point is the identity")
	}
	if new(edwards25519.Point).Add(p, p).Equal(edwards25519.NewIdentityPoint()) != 1 {
		t.Fatal("point is not of order 2")
	}
	return p
}

// torsionSignature produces, with kp's private key, a signature over msg
// whose R commitment carries a small-order torsion component: R' = R + T,
// s = r + k'·a with k' recomputed over the shifted encoding. Only the key
// holder can build one (s must satisfy the equation over the prime-order
// component), so this is signer-side malleability, not a forgery.
func torsionSignature(t *testing.T, kp *KeyPair, msg []byte) []byte {
	t.Helper()
	var wide [64]byte
	if _, err := rand.Read(wide[:]); err != nil {
		t.Fatalf("read nonce: %v", err)
	}
	r, err := new(edwards25519.Scalar).SetUniformBytes(wide[:])
	if err != nil {
		t.Fatalf("nonce scalar: %v", err)
	}

	R := new(edwards25519.Point).ScalarBaseMult(r)
	R.Add(R, smallOrderPoint(t)) // plant the torsion defect
	return signWithCommitment(t, kp, msg, R.Bytes(), r)
}

// signWithCommitment signs msg with kp's private key a over the given
// commitment encoding renc and nonce r: s = k·a + r, k = SHA-512(renc ‖ A ‖
// msg). The caller picks renc, which lets a test encode R in ways an honest
// signer never would.
func signWithCommitment(t *testing.T, kp *KeyPair, msg, renc []byte, r *edwards25519.Scalar) []byte {
	t.Helper()
	// Expand the private scalar a exactly as Ed25519 key expansion does.
	h := sha512.Sum512(kp.private.Seed())
	a, err := new(edwards25519.Scalar).SetBytesWithClamping(h[:32])
	if err != nil {
		t.Fatalf("clamp private scalar: %v", err)
	}
	k := challengeScalar(renc, kp.Public, msg)
	s := new(edwards25519.Scalar).MultiplyAdd(k, a, r) // s = k·a + r
	return append(append([]byte{}, renc...), s.Bytes()...)
}

// verifyViews returns reg and two Accelerated views of its key set: one
// with a verified-signature cache and one with batch verification off.
func verifyViews(reg *Registry) map[string]*Registry {
	return map[string]*Registry{
		"plain":    reg,
		"cached":   reg.Accelerated(NewVerifyCache(0, nil), true, nil),
		"no-batch": reg.Accelerated(nil, false, nil),
	}
}

// requireEveryPathAgrees requires every verification path of every view to
// return VerifySignature's verdict on (msg, sig) under signer's key, which
// must be the key the views hold for signer.ID: Registry.Verify (the
// per-key fixed-base path) and the BatchVerifier alone (scalar fallback) and
// among valid signatures (batch equation, then bisection if sig is bad). It
// returns that verdict.
func requireEveryPathAgrees(t *testing.T, views map[string]*Registry, signer *KeyPair, msg, sig []byte) bool {
	t.Helper()
	want := VerifySignature(signer.Public, msg, sig)
	for name, view := range views {
		if got := view.Verify(signer.ID, msg, sig) == nil; got != want {
			t.Fatalf("%s: Registry.Verify=%v, VerifySignature=%v", name, got, want)
		}
		for _, fill := range []int{0, 7} {
			bv := view.NewBatchVerifier(fill + 1)
			for i := 0; i < fill; i++ {
				m := []byte{0xbb, byte(i)}
				bv.Add(signer.ID, m, signer.Sign(m))
			}
			bv.Add(signer.ID, msg, sig)
			failed := bv.Verify()
			got := len(failed) == 0
			if got != want || (!want && (len(failed) != 1 || failed[0] != fill)) {
				t.Fatalf("%s, %d valid alongside: batch failed=%v, VerifySignature=%v", name, fill, failed, want)
			}
		}
	}
	return want
}

// TestTorsionSignatureDeterministic is the regression test for the batch
// soundness fix: a signature with a small-order torsion defect in R is
// rejected by the cofactorless crypto/ed25519.Verify, but under a
// cofactorless batch equation it would be *randomly* accepted (probability
// 1/order over the z coefficients) — two honest replicas could durably
// disagree on the same bytes. The cofactored equation used here must settle
// it identically on the scalar and batch paths, every time: always valid,
// deterministically, on both.
func TestTorsionSignatureDeterministic(t *testing.T) {
	kps := []*KeyPair{MustGenerateKeyPair(0), MustGenerateKeyPair(1)}
	reg := NewRegistry(kps...)
	msg := []byte("juridical record with a torsioned commitment")
	sig := torsionSignature(t, kps[0], msg)

	// Sanity: the defect is real — the stdlib's cofactorless equation
	// rejects these bytes.
	if ed25519.Verify(kps[0].Public, msg, sig) {
		t.Fatal("torsion signature unexpectedly passes ed25519.Verify; defect not planted")
	}

	// Scalar path: deterministically valid.
	if !VerifySignature(kps[0].Public, msg, sig) {
		t.Fatal("cofactored scalar verify rejected the torsion signature")
	}
	if err := reg.Verify(kps[0].ID, msg, sig); err != nil {
		t.Fatalf("Registry.Verify rejected the torsion signature: %v", err)
	}
	requireEveryPathAgrees(t, verifyViews(reg), kps[0], msg, sig)

	// Batch path: the verdict must agree with the scalar path on every run.
	// 64 trials redraw the random z coefficients each time; under the old
	// cofactorless batch equation the order-2 defect flipped the verdict
	// with probability 1/2 per trial, so a nondeterministic regression fails
	// this loop with probability 1 - 2^-64.
	for trial := 0; trial < 64; trial++ {
		bv := reg.NewBatchVerifier(8)
		for i := 0; i < 8; i++ {
			if i == 3 {
				bv.Add(kps[0].ID, msg, sig)
				continue
			}
			m := []byte{byte(trial), byte(i)}
			bv.Add(kps[i%2].ID, m, kps[i%2].Sign(m))
		}
		if failed := bv.Verify(); failed != nil {
			t.Fatalf("trial %d: batch verdict diverged from scalar path: failed=%v", trial, failed)
		}
	}

	// And the bisection ground truth agrees too: corrupt a different entry
	// so the batch fails and the torsion entry is settled by a bisection
	// leaf — it must still be valid, and only the corrupt index named.
	for trial := 0; trial < 16; trial++ {
		bv := reg.NewBatchVerifier(4)
		bv.Add(kps[0].ID, msg, sig)
		for i := 1; i < 4; i++ {
			m := []byte{0xff, byte(trial), byte(i)}
			s := kps[i%2].Sign(m)
			if i == 2 {
				s = bytes.Repeat([]byte{0x42}, SignatureSize) // corrupt
			}
			bv.Add(kps[i%2].ID, m, s)
		}
		if failed := bv.Verify(); len(failed) != 1 || failed[0] != 2 {
			t.Fatalf("trial %d: want failed=[2], got %v", trial, failed)
		}
	}
}

// TestMultByCofactor pins the vendored curve addition: 8·P must equal three
// doublings for a generic point, and must clear a small-order point to the
// identity.
func TestMultByCofactor(t *testing.T) {
	var wide [64]byte
	if _, err := rand.Read(wide[:]); err != nil {
		t.Fatalf("rand: %v", err)
	}
	s, err := new(edwards25519.Scalar).SetUniformBytes(wide[:])
	if err != nil {
		t.Fatalf("scalar: %v", err)
	}
	p := new(edwards25519.Point).ScalarBaseMult(s)

	want := new(edwards25519.Point).Add(p, p) // 2P
	want.Add(want, want)                      // 4P
	want.Add(want, want)                      // 8P
	got := new(edwards25519.Point).MultByCofactor(p)
	if got.Equal(want) != 1 {
		t.Fatal("MultByCofactor disagrees with three doublings")
	}

	small := smallOrderPoint(t)
	if new(edwards25519.Point).MultByCofactor(small).Equal(edwards25519.NewIdentityPoint()) != 1 {
		t.Fatal("MultByCofactor did not clear a small-order point")
	}
}

// TestNonCanonicalCommitment drives every verification path with signatures
// that satisfy the cofactored equation but encode R in every way SetBytes
// accepts for a point with x = 0 or a small y: the nonce r = 0 makes R the
// identity, and adding a small-order point makes it (0, −1) or (±√−1, 0).
// The canonical encodings are valid; the unreduced-y and signed-x = 0 ones
// are not, and each path must say so exactly as VerifySignature does.
func TestNonCanonicalCommitment(t *testing.T) {
	kp := MustGenerateKeyPair(3)
	views := verifyViews(NewRegistry(kp))
	ones := bytes.Repeat([]byte{0xff}, 30)
	zeros := make([]byte, 30)
	enc := func(lo byte, mid []byte, hi byte) []byte {
		return append(append([]byte{lo}, mid...), hi)
	}
	cases := []struct {
		name  string
		renc  []byte
		valid bool
	}{
		{"identity", enc(0x01, zeros, 0x00), true},
		{"identity, sign bit", enc(0x01, zeros, 0x80), false},
		{"identity, y=p+1", enc(0xee, ones, 0x7f), false},
		{"identity, y=p+1, sign bit", enc(0xee, ones, 0xff), false},
		{"(0,-1)", enc(0xec, ones, 0x7f), true},
		{"(0,-1), sign bit", enc(0xec, ones, 0xff), false},
		{"(x,0)", enc(0x00, zeros, 0x00), true},
		{"(-x,0)", enc(0x00, zeros, 0x80), true},
		{"(x,0), y=p", enc(0xed, ones, 0x7f), false},
		{"(-x,0), y=p", enc(0xed, ones, 0xff), false},
	}
	zero := edwards25519.NewScalar()
	for _, c := range cases {
		msg := []byte("commitment " + c.name)
		sig := signWithCommitment(t, kp, msg, c.renc, zero)
		if got := requireEveryPathAgrees(t, views, kp, msg, sig); got != c.valid {
			t.Fatalf("%s: VerifySignature=%v, want %v", c.name, got, c.valid)
		}
	}
}
