// Copyright (c) 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package edwards25519 implements group logic for the twisted Edwards curve
//
//	-x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2
//
// This is the curve underlying Ed25519. The implementation is vendored from
// the Go standard library (crypto/internal/fips140/edwards25519, go1.24),
// which in turn descends from filippo.io/edwards25519 — the only changes are
// the import paths (the stdlib-internal subtle/byteorder helpers are replaced
// by crypto/subtle and encoding/binary) and three additions:
//
//   - VarTimeMultiScalarBaseMult (multiscalar.go), the multi-scalar
//     multiplication primitive ZugChain's Ed25519 batch verifier is built
//     on;
//   - MultByCofactor (ported from filippo.io/edwards25519), which the
//     cofactored verification equation uses to clear small-order torsion;
//   - FixedBaseTable and VarTimeFixedBaseDoubleScalarMult (fixedbase.go),
//     the scalar verification path's a·A + b·B for a key A that never
//     changes. A FixedBaseTable holds width-8 NAF tables (odd multiples,
//     affine) of P, 2^64·P, 2^128·P and 2^192·P; the NAF digit at bit j is
//     added at position j mod 64 from window j/64's table, so both scalars
//     share a 64-step doubling chain instead of 256 steps. A table's 256
//     entries are made affine with one shared field inversion. The
//     basepoint's table is built once per process, like basepointNafTable;
//     crypto.Registry builds each key's lazily, on the key's first scalar
//     verification, and keeps it with the decoded key point in its per-key
//     state. That state's canonical-R check compares bytes instead of
//     re-encoding: SetBytes accepts only two non-canonical forms, y ≥ p and
//     a set sign bit with x = 0 (y ∈ {1, p − 1}), and the check rejects
//     exactly those (see crypto.canonicalPoint).
//
// The original license is retained in LICENSE.
//
// The vendoring exists because ZugChain's ordering hot path is bound by
// sequential crypto/ed25519.Verify calls, batch verification needs direct
// access to the group arithmetic, and this repository builds without network
// access to fetch filippo.io/edwards25519.
package edwards25519
