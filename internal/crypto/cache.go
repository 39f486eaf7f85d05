package crypto

import (
	"container/list"
	"crypto/ed25519"
	"sync"

	"zugchain/internal/metrics"
)

// DefaultVerifyCacheSize is the per-node capacity of the verified-signature
// cache when the operator does not override it. 4096 entries cover several
// in-flight protocol rounds of a 4–16 replica cluster with headroom for
// retransmits; at ~150 bytes per entry the worst case is under a megabyte.
const DefaultVerifyCacheSize = 4096

// verifyCacheShards splits the cache into independently locked shards so pool
// workers verifying different messages rarely contend. Must be a power of two.
const verifyCacheShards = 8

// cacheKey identifies one successful verification. The full signature is part
// of the key on purpose: an attacker replaying a known-good (signer, digest)
// pair with a forged signature misses the cache and falls through to a real
// verify, so a cache entry can never launder a bad signature (anti-poisoning).
// The public key the signature verified under is part of the key too, so if
// Registry.Add ever replaces a node's key, every entry proved under the old
// key silently stops hitting — no invalidation protocol needed, across every
// Accelerated view sharing the key set.
type cacheKey struct {
	id  NodeID
	pub [ed25519.PublicKeySize]byte
	d   Digest
	sig [SignatureSize]byte
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element // element value is the cacheKey
	order   *list.List                 // front = most recently used
	cap     int
}

// VerifyCache memoizes successful Ed25519 verifications so retransmitted
// messages, NEWVIEW re-proposals, and state-transfer re-validation skip the
// scalar multiplication entirely. It is a sharded, lock-striped, bounded LRU;
// all methods are safe for concurrent use and nil-safe (a nil cache never
// hits and never stores).
//
// Entries are inserted only on the two trusted paths — after a verification
// actually succeeded (Registry.Verify, BatchVerifier) or when this node signed
// the bytes itself (KeyPair.Sign with WithCache) — never on receipt of
// unverified data.
type VerifyCache struct {
	shards [verifyCacheShards]cacheShard
	cc     *metrics.CryptoCounters
}

// NewVerifyCache returns a cache bounded to capacity entries overall.
// capacity <= 0 selects DefaultVerifyCacheSize. A nil cc gets a private
// counter set nobody reads.
func NewVerifyCache(capacity int, cc *metrics.CryptoCounters) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheSize
	}
	if cc == nil {
		cc = &metrics.CryptoCounters{}
	}
	c := &VerifyCache{cc: cc}
	// Distribute the bound across shards, rounding up so small capacities
	// still admit at least one entry per shard.
	per := (capacity + verifyCacheShards - 1) / verifyCacheShards
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*list.Element, per)
		c.shards[i].order = list.New()
		c.shards[i].cap = per
	}
	return c
}

func (c *VerifyCache) shard(k *cacheKey) *cacheShard {
	// The digest is already uniform (SHA-256), so its low bits pick a shard.
	return &c.shards[uint(k.d[0])&(verifyCacheShards-1)]
}

// Seen reports whether (id, digest, sig) was previously verified under pub,
// refreshing its LRU position on a hit.
func (c *VerifyCache) Seen(id NodeID, pub ed25519.PublicKey, d Digest, sig []byte) bool {
	if c == nil || len(sig) != SignatureSize || len(pub) != ed25519.PublicKeySize {
		return false
	}
	k := cacheKey{id: id, d: d}
	copy(k.pub[:], pub)
	copy(k.sig[:], sig)
	s := c.shard(&k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.order.MoveToFront(el)
	}
	s.mu.Unlock()
	if ok {
		c.cc.CacheHits.Add(1)
	} else {
		c.cc.CacheMisses.Add(1)
	}
	return ok
}

// Note records a successful verification of (id, digest, sig) under pub,
// evicting the least recently used entry of the shard if it is full. Callers
// must only invoke it after sig actually verified (or was produced locally).
func (c *VerifyCache) Note(id NodeID, pub ed25519.PublicKey, d Digest, sig []byte) {
	if c == nil || len(sig) != SignatureSize || len(pub) != ed25519.PublicKeySize {
		return
	}
	k := cacheKey{id: id, d: d}
	copy(k.pub[:], pub)
	copy(k.sig[:], sig)
	s := c.shard(&k)
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	evicted := false
	if s.order.Len() >= s.cap {
		if back := s.order.Back(); back != nil {
			delete(s.entries, back.Value.(cacheKey))
			s.order.Remove(back)
			evicted = true
		}
	}
	s.entries[k] = s.order.PushFront(k)
	s.mu.Unlock()
	if evicted {
		c.cc.CacheEvictions.Add(1)
	}
}

// Len returns the current number of cached entries across all shards.
func (c *VerifyCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
