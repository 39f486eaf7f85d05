package crypto

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"testing"

	"zugchain/internal/metrics"
)

func TestVerifyCacheHitMissEvict(t *testing.T) {
	cc := &metrics.CryptoCounters{}
	// Capacity 16 across 8 shards = 2 entries per shard.
	c := NewVerifyCache(16, cc)

	sig := make([]byte, SignatureSize)
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	d := Hash([]byte("msg"))
	if c.Seen(1, pub, d, sig) {
		t.Fatal("hit on empty cache")
	}
	c.Note(1, pub, d, sig)
	if !c.Seen(1, pub, d, sig) {
		t.Fatal("miss after Note")
	}

	// Different signature over the same (signer, digest) must miss: the
	// full signature is part of the key (anti-poisoning — a forged sig can
	// never ride a cached good one).
	forged := make([]byte, SignatureSize)
	forged[0] = 0xff
	if c.Seen(1, pub, d, forged) {
		t.Fatal("forged signature hit the cache")
	}
	// Different signer, same digest and sig: also a miss.
	if c.Seen(2, pub, d, sig) {
		t.Fatal("wrong signer hit the cache")
	}

	// Overfill: per-shard LRU bound must evict, never grow unbounded.
	for i := 0; i < 500; i++ {
		c.Note(1, pub, Hash([]byte(fmt.Sprintf("m%d", i))), sig)
	}
	if c.Len() > 16 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
	if s := cc.Snapshot(); s.CacheEvictions == 0 {
		t.Fatal("no evictions recorded after overfill")
	}

	// Wrong-length signatures never enter or match.
	c.Note(1, pub, d, sig[:10])
	if c.Seen(1, pub, d, sig[:10]) {
		t.Fatal("short signature cached")
	}

	// Nil cache is inert.
	var nilCache *VerifyCache
	nilCache.Note(1, pub, d, sig)
	if nilCache.Seen(1, pub, d, sig) || nilCache.Len() != 0 {
		t.Fatal("nil cache not inert")
	}
}

func TestVerifyCacheLRUOrder(t *testing.T) {
	// One shard's worth of traffic: craft digests landing in shard 0.
	c := NewVerifyCache(16, nil) // 2 per shard
	sig := make([]byte, SignatureSize)
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	shard0 := func(tag byte) Digest {
		var d Digest
		d[0] = 0 // shard selector byte
		d[1] = tag
		return d
	}
	a, b2, e := shard0(1), shard0(2), shard0(3)
	c.Note(1, pub, a, sig)
	c.Note(1, pub, b2, sig)
	c.Seen(1, pub, a, sig) // refresh a; b2 is now LRU
	c.Note(1, pub, e, sig) // evicts b2
	if !c.Seen(1, pub, a, sig) {
		t.Fatal("refreshed entry evicted")
	}
	if c.Seen(1, pub, b2, sig) {
		t.Fatal("LRU entry survived eviction")
	}
	if !c.Seen(1, pub, e, sig) {
		t.Fatal("new entry missing")
	}
}

// TestRegistryVerifyCached checks the Registry.Verify fast path: the second
// verification of the same triple must not run the curve.
func TestRegistryVerifyCached(t *testing.T) {
	kp := MustGenerateKeyPair(0)
	cc := &metrics.CryptoCounters{}
	reg := NewRegistry(kp).Accelerated(NewVerifyCache(0, cc), true, cc)

	msg := []byte("juridical record")
	sig := kp.Sign(msg)
	for i := 0; i < 3; i++ {
		if err := reg.Verify(kp.ID, msg, sig); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	s := cc.Snapshot()
	if s.ScalarVerifies != 1 {
		t.Fatalf("expected 1 scalar verify, got %d", s.ScalarVerifies)
	}
	if s.CacheHits != 2 {
		t.Fatalf("expected 2 cache hits, got %d", s.CacheHits)
	}

	// A failed verification must not be cached.
	bad := make([]byte, SignatureSize)
	for i := 0; i < 2; i++ {
		if err := reg.Verify(kp.ID, msg, bad); err == nil {
			t.Fatal("bad signature accepted")
		}
	}
	if s := cc.Snapshot(); s.ScalarVerifies != 3 {
		t.Fatalf("bad signature was cached: %d scalar verifies", s.ScalarVerifies)
	}
}

// TestSignSeedsCache checks satellite #1's mechanism: a key pair bound to a
// cache via WithCache marks its own signatures verified at Sign time, so the
// signer never re-verifies its own output.
func TestSignSeedsCache(t *testing.T) {
	kp := MustGenerateKeyPair(0)
	cc := &metrics.CryptoCounters{}
	cache := NewVerifyCache(0, cc)
	reg := NewRegistry(kp).Accelerated(cache, true, cc)
	signer := kp.WithCache(cache)

	msg := []byte("self-signed proposal")
	sig := signer.Sign(msg)
	if err := reg.Verify(kp.ID, msg, sig); err != nil {
		t.Fatalf("verify own signature: %v", err)
	}
	if s := cc.Snapshot(); s.ScalarVerifies != 0 {
		t.Fatalf("own signature cost %d scalar verifies, want 0", s.ScalarVerifies)
	}

	// The original pair stays cache-free.
	sig2 := kp.Sign([]byte("other"))
	if cache.Seen(kp.ID, kp.Public, Hash([]byte("other")), sig2) {
		t.Fatal("unbound key pair seeded the cache")
	}
}

// TestVerifyCacheKeyRotation checks that cached verifications die with the
// key they were proved under: after Registry.Add replaces a node's public
// key, signatures verified under the old key must not keep validating via
// cache hits — the public key is part of the cache key, so they miss and
// fall through to a real (failing) verify. The per-key verification state
// dies with the key too: once K1's point and fixed-base tables are in use,
// K1's signatures must fail and K2's verify on every path of every
// Accelerated view sharing the key set.
func TestVerifyCacheKeyRotation(t *testing.T) {
	old := MustGenerateKeyPair(7)
	cc := &metrics.CryptoCounters{}
	base := NewRegistry(old)
	reg := base.Accelerated(NewVerifyCache(0, cc), true, cc)
	views := verifyViews(base)
	views["counted"] = reg

	msg := []byte("signed before the key changed")
	sig := old.Sign(msg)
	if err := reg.Verify(old.ID, msg, sig); err != nil {
		t.Fatalf("verify under original key: %v", err)
	}
	if err := reg.Verify(old.ID, msg, sig); err != nil {
		t.Fatalf("cached verify under original key: %v", err)
	}
	if s := cc.Snapshot(); s.CacheHits != 1 {
		t.Fatalf("expected 1 cache hit before rotation, got %d", s.CacheHits)
	}
	if base.snapshot()[old.ID].table == nil {
		t.Fatal("K1's fixed-base tables were not built by the scalar path")
	}

	// Replace the key. The old signature is now invalid and must be
	// re-checked for real, not served from the cache.
	k2 := MustGenerateKeyPair(7)
	reg.Add(old.ID, k2.Public)
	before := cc.Snapshot()
	if err := reg.Verify(old.ID, msg, sig); err == nil {
		t.Fatal("old-key signature still accepted after key rotation")
	}
	after := cc.Snapshot()
	if after.CacheHits != before.CacheHits {
		t.Fatal("old-key signature hit the cache after key rotation")
	}
	if after.ScalarVerifies != before.ScalarVerifies+1 {
		t.Fatalf("expected a real verify after rotation, got %d -> %d scalar verifies",
			before.ScalarVerifies, after.ScalarVerifies)
	}

	// Batch path sees the rotation too: a BatchVerifier entry for the old
	// signature must fail, not cache-hit.
	bv := reg.NewBatchVerifier(1)
	bv.Add(old.ID, msg, sig)
	if failed := bv.Verify(); len(failed) != 1 {
		t.Fatalf("batch accepted old-key signature after rotation: %v", failed)
	}

	// Every path of every view now judges id 7's signatures under K2.
	if requireEveryPathAgrees(t, views, k2, msg, sig) {
		t.Fatal("K1 signature valid under K2 on the reference path")
	}
	for i := 0; i < 4; i++ {
		m := []byte{0x52, byte(i)}
		if requireEveryPathAgrees(t, views, k2, m, old.Sign(m)) {
			t.Fatalf("fresh K1 signature %d valid after rotation", i)
		}
		if !requireEveryPathAgrees(t, views, k2, m, k2.Sign(m)) {
			t.Fatalf("K2 signature %d rejected after rotation", i)
		}
	}
}

// TestVerifyCacheConcurrent hammers one cache from many goroutines mixing
// hits, misses, inserts and evictions — the lock-striping must hold up under
// the race detector (this test is part of the `make check` race run).
func TestVerifyCacheConcurrent(t *testing.T) {
	cc := &metrics.CryptoCounters{}
	c := NewVerifyCache(64, cc)
	kp := MustGenerateKeyPair(0)
	reg := NewRegistry(kp).Accelerated(c, true, cc)

	msgs := make([][]byte, 32)
	sigs := make([][]byte, 32)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("concurrent %d", i))
		sigs[i] = kp.Sign(msgs[i])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j := (g*31 + i) % len(msgs)
				if err := reg.Verify(kp.ID, msgs[j], sigs[j]); err != nil {
					t.Errorf("verify: %v", err)
					return
				}
				// Unique inserts to force LRU churn alongside the hits.
				c.Note(kp.ID, kp.Public, Hash([]byte(fmt.Sprintf("churn %d %d", g, i))), sigs[j])
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded bound under concurrency: %d", c.Len())
	}
}

// TestBatchVerifyConcurrentCache runs batch verifiers on pool workers sharing
// one cache — the production shape (VerifyRequestDeep chunks on VerifyPool).
func TestBatchVerifyConcurrentCache(t *testing.T) {
	cc := &metrics.CryptoCounters{}
	cache := NewVerifyCache(0, cc)
	kps := []*KeyPair{MustGenerateKeyPair(0), MustGenerateKeyPair(1)}
	reg := NewRegistry(kps...).Accelerated(cache, true, cc)
	pool := NewVerifyPool(4)
	defer pool.Close()

	msgs := make([][]byte, 128)
	sigs := make([][]byte, 128)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("pooled %d", i))
		sigs[i] = kps[i%2].Sign(msgs[i])
	}
	for round := 0; round < 4; round++ {
		pool.RunChunks(len(msgs), 16, func(lo, hi int) {
			bv := reg.NewBatchVerifier(hi - lo)
			for i := lo; i < hi; i++ {
				bv.Add(kps[i%2].ID, msgs[i], sigs[i])
			}
			if failed := bv.Verify(); failed != nil {
				t.Errorf("chunk [%d,%d): failures %v", lo, hi, failed)
			}
		})
	}
	s := cc.Snapshot()
	if s.BatchedSigs != 128 {
		t.Fatalf("expected 128 batched sigs (first round only), got %d", s.BatchedSigs)
	}
	if s.CacheHits != 3*128 {
		t.Fatalf("expected 384 cache hits (three retransmit rounds), got %d", s.CacheHits)
	}
}
