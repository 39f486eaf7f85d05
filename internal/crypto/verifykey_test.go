package crypto

import (
	"bytes"
	"math/big"
	"sync"
	"testing"

	"zugchain/internal/crypto/edwards25519"
)

// roundTripCanonical is the reference canonical-encoding rule VerifySignature
// applies to R: decode, re-encode, compare. ok is false when enc does not
// decode at all.
func roundTripCanonical(enc []byte) (canonical, ok bool) {
	p, err := new(edwards25519.Point).SetBytes(enc)
	if err != nil {
		return false, false
	}
	return bytes.Equal(p.Bytes(), enc), true
}

// encodeY returns the 32-byte little-endian encoding of the 255-bit y with
// the sign bit set to sign.
func encodeY(y *big.Int, sign bool) []byte {
	be := y.FillBytes(make([]byte, 32))
	enc := make([]byte, 32)
	for i := range be {
		enc[i] = be[31-i]
	}
	if sign {
		enc[31] |= 0x80
	}
	return enc
}

// TestCanonicalPointMatchesRoundTrip checks the byte-level canonical check
// against the SetBytes → Bytes round trip on every encoding whose y lies in
// {0 … 63} ∪ {p − 32 … 2^255 − 1}, with both sign bits: the small y values
// include the x = 0 point y = 1, the top range includes the other one,
// y = p − 1, and every unreduced y ≥ p.
func TestCanonicalPointMatchesRoundTrip(t *testing.T) {
	top := new(big.Int).Lsh(big.NewInt(1), 255)
	p := new(big.Int).Sub(top, big.NewInt(19))
	var ys []*big.Int
	for y := int64(0); y < 64; y++ {
		ys = append(ys, big.NewInt(y))
	}
	for y := new(big.Int).Sub(p, big.NewInt(32)); y.Cmp(top) < 0; y = new(big.Int).Add(y, big.NewInt(1)) {
		ys = append(ys, y)
	}

	decoded, rejected := 0, 0
	for _, y := range ys {
		for _, sign := range []bool{false, true} {
			enc := encodeY(y, sign)
			want, ok := roundTripCanonical(enc)
			if !ok {
				continue
			}
			decoded++
			if !want {
				rejected++
			}
			if got := canonicalPoint(enc); got != want {
				t.Errorf("y=%v sign=%v: canonicalPoint=%v, round trip=%v", y, sign, got, want)
			}
		}
	}
	// Every unreduced y whose reduction decodes, plus the two signed x = 0
	// points, must have been exercised as rejections.
	if decoded == 0 || rejected < 4 {
		t.Fatalf("coverage too thin: %d decodable encodings, %d non-canonical", decoded, rejected)
	}
}

// FuzzCanonicalPoint checks canonicalPoint against the round trip on
// arbitrary 32-byte encodings.
func FuzzCanonicalPoint(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add(append([]byte{0x01}, make([]byte, 31)...))
	f.Add(append(append([]byte{0x01}, make([]byte, 30)...), 0x80))
	f.Add(append(append([]byte{0xec}, bytes.Repeat([]byte{0xff}, 30)...), 0xff))
	f.Add(append(append([]byte{0xed}, bytes.Repeat([]byte{0xff}, 30)...), 0x7f))
	f.Add([]byte(MustGenerateKeyPair(0).Public))
	f.Fuzz(func(t *testing.T, enc []byte) {
		if len(enc) != 32 {
			return
		}
		want, ok := roundTripCanonical(enc)
		if !ok {
			return
		}
		if got := canonicalPoint(enc); got != want {
			t.Fatalf("%x: canonicalPoint=%v, round trip=%v", enc, got, want)
		}
	})
}

// TestVerifyKeyConcurrentFirstUse races the lazy per-key state: goroutines
// verify on a fresh registry at once, so the key points and fixed-base
// tables are built under contention (on both paths), while another
// goroutine registers more keys. Run under -race in make check.
func TestVerifyKeyConcurrentFirstUse(t *testing.T) {
	kps := []*KeyPair{MustGenerateKeyPair(0), MustGenerateKeyPair(1)}
	reg := NewRegistry(kps...)
	msgs := make([][]byte, 8)
	sigs := make([][]byte, len(msgs))
	for i := range msgs {
		msgs[i] = []byte{0x33, byte(i)}
		sigs[i] = kps[i%2].Sign(msgs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range msgs {
				j := (i + g) % len(msgs)
				if err := reg.Verify(kps[j%2].ID, msgs[j], sigs[j]); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}
			bv := reg.NewBatchVerifier(len(msgs))
			for i := range msgs {
				bv.Add(kps[i%2].ID, msgs[i], sigs[i])
			}
			if failed := bv.Verify(); failed != nil {
				t.Errorf("goroutine %d: batch failed %v", g, failed)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := NodeID(10); id < 14; id++ {
			reg.Add(id, MustGenerateKeyPair(id).Public)
		}
	}()
	wg.Wait()
}
