// Copyright (c) 2026 The ZugChain Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"sync"

	"zugchain/internal/crypto/edwards25519/field"
)

// fixedBaseWindows is how many 64-bit windows a FixedBaseTable splits a
// scalar into. The NAF digit at bit j is looked up in the table of
// 2^(64·(j/64))·P and added at position j mod 64 of the doubling chain, so
// the chain is 64 doublings long instead of 256.
const fixedBaseWindows = 4

// FixedBaseTable is the precomputation of one fixed point P for
// VarTimeFixedBaseDoubleScalarMult: the width-8 NAF lookup tables (the odd
// multiples 1·Q, 3·Q, …, 127·Q in affine form) of Q = P, 2^64·P, 2^128·P
// and 2^192·P. It is read-only once built and safe for concurrent use.
type FixedBaseTable struct {
	windows [fixedBaseWindows]nafLookupTable8
}

// NewFixedBaseTable precomputes the tables of p. The 256 entries are built
// in extended coordinates and converted to affine form together, so the
// whole table costs one field inversion (Montgomery's trick) on top of 192
// doublings and 252 additions.
func NewFixedBaseTable(p *Point) *FixedBaseTable {
	checkInitialized(p)
	const perWindow = 64 // entries per nafLookupTable8
	var pts [fixedBaseWindows * perWindow]Point

	q := new(Point).Set(p)
	q2 := new(Point)
	var q2Cached projCached
	var tmp1 projP1xP1
	var tmp2 projP2
	for w := 0; w < fixedBaseWindows; w++ {
		if w > 0 {
			// q = 2^64 · q
			tmp2.FromP3(q)
			for i := 0; i < 64; i++ {
				tmp1.Double(&tmp2)
				tmp2.FromP1xP1(&tmp1)
			}
			q.fromP1xP1(&tmp1)
		}
		// Odd multiples (2i+1)·q, as nafLookupTable8.FromP3 lays them out.
		q2Cached.FromP3(q2.Add(q, q))
		row := pts[w*perWindow : (w+1)*perWindow]
		row[0].Set(q)
		for i := 1; i < perWindow; i++ {
			row[i].fromP1xP1(tmp1.Add(&row[i-1], &q2Cached))
		}
	}

	// Batch inversion: prefix[i] = z_0 ⋯ z_{i-1}; one inversion of the full
	// product, then walk back peeling one factor per entry.
	var prefix [len(pts)]field.Element
	var acc, inv, zInv field.Element
	acc.One()
	for i := range pts {
		prefix[i].Set(&acc)
		acc.Multiply(&acc, &pts[i].z)
	}
	inv.Invert(&acc)
	t := new(FixedBaseTable)
	for i := len(pts) - 1; i >= 0; i-- {
		zInv.Multiply(&inv, &prefix[i])
		inv.Multiply(&inv, &pts[i].z)
		t.windows[i/perWindow].points[i%perWindow].fromP3Inverse(&pts[i], &zInv)
	}
	return t
}

// fromP3Inverse is affineCached.FromP3 with the inverse of p's Z coordinate
// supplied by the caller.
func (v *affineCached) fromP3Inverse(p *Point, zInv *field.Element) *affineCached {
	v.YplusX.Add(&p.y, &p.x)
	v.YminusX.Subtract(&p.y, &p.x)
	v.T2d.Multiply(&p.t, d2)
	v.YplusX.Multiply(&v.YplusX, zInv)
	v.YminusX.Multiply(&v.YminusX, zInv)
	v.T2d.Multiply(&v.T2d, zInv)
	return v
}

// basepointFixedBaseTable is the FixedBaseTable of the basepoint. It is
// precomputed the first time it's used.
func basepointFixedBaseTable() *FixedBaseTable {
	basepointFixedBasePrecomp.initOnce.Do(func() {
		basepointFixedBasePrecomp.table = NewFixedBaseTable(NewGeneratorPoint())
	})
	return basepointFixedBasePrecomp.table
}

var basepointFixedBasePrecomp struct {
	table    *FixedBaseTable
	initOnce sync.Once
}

// VarTimeFixedBaseDoubleScalarMult sets v = a * A + b * B, where aTable is
// NewFixedBaseTable(A) and B is the canonical generator, and returns v. It
// computes the same point as VarTimeDoubleScalarBaseMult, but because both
// bases come with fixed-base tables the two width-8 NAFs share a 64-step
// doubling chain instead of a 256-step one, and the per-call odd-multiples
// table of A is not built.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeFixedBaseDoubleScalarMult(a *Scalar, aTable *FixedBaseTable, b *Scalar) *Point {
	bTable := basepointFixedBaseTable()
	aNaf := a.nonAdjacentForm(8)
	bNaf := b.nonAdjacentForm(8)

	mult := &affineCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()
	for i := 63; i >= 0; i-- {
		tmp1.Double(tmp2)
		for w := 0; w < fixedBaseWindows; w++ {
			tmp1.addNafDigit(v, &aTable.windows[w], aNaf[64*w+i], mult)
			tmp1.addNafDigit(v, &bTable.windows[w], bNaf[64*w+i], mult)
		}
		tmp2.FromP1xP1(tmp1)
	}

	v.fromP2(tmp2)
	return v
}

// addNafDigit adds digit·Q to the accumulator v, where table holds Q's odd
// multiples; a zero digit leaves v unchanged. scratch and mult are
// caller-provided temporaries.
func (v *projP1xP1) addNafDigit(scratch *Point, table *nafLookupTable8, digit int8, mult *affineCached) {
	if digit > 0 {
		scratch.fromP1xP1(v)
		table.SelectInto(mult, digit)
		v.AddAffine(scratch, mult)
	} else if digit < 0 {
		scratch.fromP1xP1(v)
		table.SelectInto(mult, -digit)
		v.SubAffine(scratch, mult)
	}
}
