package crypto

import (
	"crypto/ed25519"
	"sync"

	"zugchain/internal/crypto/edwards25519"
)

// verifyKey is one registered key's verification state, held in the
// Registry's copy-on-write key set so the hot path never decodes a key. It
// carries the key bytes (hashed into every challenge), the decompressed
// point A and A's fixed-base tables for the scalar path. A and the tables
// are built lazily, on the first verification that needs them, so
// registering keys costs nothing at set-up. Registry.Add always installs a
// fresh verifyKey, so a replaced key's point and tables are never reused.
// The state is shared by all Accelerated views and safe for concurrent use.
type verifyKey struct {
	pub ed25519.PublicKey

	pointOnce sync.Once
	point     *edwards25519.Point

	tableOnce sync.Once
	table     *edwards25519.FixedBaseTable
}

// A returns the decompressed key point, decoding it on first use, or nil
// when pub is not a valid point encoding.
func (k *verifyKey) A() *edwards25519.Point {
	k.pointOnce.Do(func() {
		if len(k.pub) != ed25519.PublicKeySize {
			return
		}
		if A, err := new(edwards25519.Point).SetBytes(k.pub); err == nil {
			k.point = A
		}
	})
	return k.point
}

// fixedBase returns A's fixed-base tables, building them on first use; A
// must be valid. Keys that never reach the scalar path, e.g. data center
// keys on a replica, never pay for the build (~0.2 ms).
func (k *verifyKey) fixedBase() *edwards25519.FixedBaseTable {
	k.tableOnce.Do(func() { k.table = edwards25519.NewFixedBaseTable(k.A()) })
	return k.table
}

// verify is VerifySignature(k.pub, msg, sig) on the key's cached state: the
// same accept set, without decoding A or inverting to re-encode R.
func (k *verifyKey) verify(msg, sig []byte) bool {
	if k.A() == nil || len(sig) != ed25519.SignatureSize {
		return false
	}
	R, S, ok := parseSignature(sig)
	if !ok {
		return false
	}
	return k.cofactoredEqual(R, S, challengeScalar(sig[:32], k.pub, msg))
}

// cofactoredEqual is cofactoredEqual for this key, with [s]B − [k]A computed
// by the fixed-base double-scalar multiplication.
func (k *verifyKey) cofactoredEqual(R *edwards25519.Point, S, c *edwards25519.Scalar) bool {
	cNeg := new(edwards25519.Scalar).Negate(c)
	p := new(edwards25519.Point).VarTimeFixedBaseDoubleScalarMult(cNeg, k.fixedBase(), S)
	p.Subtract(p, R)
	p.MultByCofactor(p)
	return p.Equal(edwards25519.NewIdentityPoint()) == 1
}

// parseSignature decodes a 64-byte signature's commitment R and scalar s,
// rejecting exactly what VerifySignature rejects: an R that does not decode
// or is not canonically encoded, and an s that is not fully reduced.
func parseSignature(sig []byte) (*edwards25519.Point, *edwards25519.Scalar, bool) {
	if !canonicalPoint(sig[:32]) {
		return nil, nil, false
	}
	R, err := new(edwards25519.Point).SetBytes(sig[:32])
	if err != nil {
		return nil, nil, false
	}
	S, err := new(edwards25519.Scalar).SetCanonicalBytes(sig[32:])
	if err != nil {
		return nil, nil, false
	}
	return R, S, true
}

// canonicalPoint reports whether enc, a 32-byte encoding that SetBytes
// accepts, is the one Bytes would return for the decoded point: the
// byte-level equivalent of the SetBytes → Bytes round-trip comparison, minus
// the field inversion Bytes costs. SetBytes accepts exactly two kinds of
// non-canonical encoding, and this rejects both:
//
//   - an unreduced y: the 255-bit y is ≥ p = 2^255 − 19, which SetBytes
//     reduces mod p, so Bytes would re-encode a different y;
//   - a set sign bit on a point with x = 0, whose only negation is 0 again,
//     so Bytes would clear the bit. x = 0 exactly when y² = 1, i.e. for
//     y ∈ {1, p − 1}.
//
// For every other encoding SetBytes returns the x whose sign matches the bit
// and Bytes reproduces the input. For encodings SetBytes rejects the result
// does not matter: those fail to decode anyway.
func canonicalPoint(enc []byte) bool {
	// Little-endian p − 1 = 0x7fff…ffec; y ≥ p and y = p − 1 share the top
	// 31 bytes (all ones under the sign bit), differing only in byte 0.
	topOnes := enc[31]&0x7f == 0x7f
	for _, b := range enc[1:31] {
		topOnes = topOnes && b == 0xff
	}
	if topOnes && enc[0] >= 0xed { // y ≥ p
		return false
	}
	if enc[31]&0x80 == 0 {
		return true
	}
	if topOnes && enc[0] == 0xec { // y = p − 1
		return false
	}
	if enc[0] != 1 || enc[31] != 0x80 {
		return true
	}
	for _, b := range enc[1:31] {
		if b != 0 {
			return true
		}
	}
	return false // y = 1
}
