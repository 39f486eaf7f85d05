// Package crypto provides the node identities and Ed25519 signing primitives
// used throughout ZugChain. Every replica and every data center owns a key
// pair; all protocol messages (ordering, checkpoint, view change, export)
// are signed, matching the paper's use of ring's Ed25519 (§IV).
package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"zugchain/internal/metrics"
)

// NodeID identifies a participant: a ZugChain replica or a data center.
// Replica IDs are dense, starting at 0, because PBFT selects the primary as
// view mod n. Data centers use a disjoint high range (see DataCenterIDBase).
type NodeID uint32

// DataCenterIDBase is the first NodeID used for data centers, keeping them
// out of the replica ID space.
const DataCenterIDBase NodeID = 1 << 16

// String renders the ID, distinguishing replicas from data centers.
func (id NodeID) String() string {
	if id >= DataCenterIDBase {
		return fmt.Sprintf("dc%d", uint32(id-DataCenterIDBase))
	}
	return fmt.Sprintf("r%d", uint32(id))
}

// Digest is a SHA-256 hash, used for request payload identity, block
// hashes, and checkpoint digests.
type Digest [32]byte

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// IsZero reports whether d is the all-zero digest.
func (d Digest) IsZero() bool { return d == Digest{} }

// Short returns an 8-hex-character prefix for logs.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// SignatureSize is the size of an Ed25519 signature in bytes.
const SignatureSize = ed25519.SignatureSize

// Signing errors.
var (
	ErrUnknownSigner    = errors.New("crypto: unknown signer")
	ErrInvalidSignature = errors.New("crypto: invalid signature")
)

// KeyPair is a node identity with its private key.
type KeyPair struct {
	ID      NodeID
	Public  ed25519.PublicKey
	private ed25519.PrivateKey

	// cache, when set via WithCache, is seeded on Sign so this node's own
	// signatures are already "verified" if they echo back (a primary
	// re-checking its own proposal, loopback delivery, state transfer).
	cache *VerifyCache
}

// GenerateKeyPair creates a fresh Ed25519 key pair for id. If rng is nil,
// crypto/rand.Reader is used.
func GenerateKeyPair(id NodeID, rng io.Reader) (*KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("crypto: generate key for %v: %w", id, err)
	}
	return &KeyPair{ID: id, Public: pub, private: priv}, nil
}

// KeyPairFromPrivate reconstructs a key pair from a stored private key,
// e.g. when loading a keyring from disk.
func KeyPairFromPrivate(id NodeID, priv ed25519.PrivateKey) *KeyPair {
	pub, _ := priv.Public().(ed25519.PublicKey)
	return &KeyPair{ID: id, Public: pub, private: priv}
}

// MustGenerateKeyPair is GenerateKeyPair for tests and setup code where key
// generation cannot reasonably fail.
func MustGenerateKeyPair(id NodeID) *KeyPair {
	kp, err := GenerateKeyPair(id, nil)
	if err != nil {
		panic(err)
	}
	return kp
}

// Sign signs msg with the node's private key. If the pair carries a verify
// cache (WithCache), the fresh signature is recorded as verified — the node
// trusts its own key, so re-encountering the signature later (loopback,
// retransmit, NEWVIEW carrying its own request) must not cost a scalar
// multiplication.
func (k *KeyPair) Sign(msg []byte) []byte {
	sig := ed25519.Sign(k.private, msg)
	k.cache.Note(k.ID, k.Public, Hash(msg), sig)
	return sig
}

// WithCache returns a copy of k that seeds cache on every Sign. The original
// pair is unchanged.
func (k *KeyPair) WithCache(cache *VerifyCache) *KeyPair {
	clone := *k
	clone.cache = cache
	return &clone
}

// Registry maps node IDs to public keys and verifies signatures. It is
// immutable after construction apart from Add, and safe for concurrent use.
// In a deployment it corresponds to the key material distributed to all
// participants at train commissioning (§III-B: "all nodes are equipped with
// a public-private key pair").
//
// Reads are lock-free: the key set is an immutable snapshot swapped
// atomically by Add (copy-on-write). Verify sits on the consensus hot path
// and runs concurrently on the verification pool's workers; keys change only
// at setup, so writes may pay for the copy. Each key in the set carries its
// verification state (verifyKey): the decoded point and fixed-base tables,
// each built on first use.
//
// The key set lives behind pointers so Accelerated can hand out views that
// share one set of keys while carrying their own verified-signature cache and
// counters (each node caches independently; the cluster's keys are one
// object).
type Registry struct {
	mu   *sync.Mutex // serializes writers (Add); readers never take it
	keys *atomic.Pointer[map[NodeID]*verifyKey]

	// Acceleration state, set by Accelerated. cache memoizes successful
	// verifications (nil disables); batch enables the multi-scalar batch
	// equation in BatchVerifier; cc receives instrumentation (nil discards).
	cache *VerifyCache
	batch bool
	cc    *metrics.CryptoCounters
}

// NewRegistry builds a registry from the given key pairs' public halves.
// Batch verification is enabled by default; there is no cache until
// Accelerated attaches one.
func NewRegistry(pairs ...*KeyPair) *Registry {
	keys := make(map[NodeID]*verifyKey, len(pairs))
	for _, kp := range pairs {
		keys[kp.ID] = &verifyKey{pub: kp.Public}
	}
	r := &Registry{mu: &sync.Mutex{}, keys: &atomic.Pointer[map[NodeID]*verifyKey]{}, batch: true}
	r.keys.Store(&keys)
	return r
}

// Accelerated returns a view of r with the given verified-signature cache,
// batch-verification switch, and counters. The view shares r's key set —
// Add through either is visible to both — but caches and counts
// independently, so co-located nodes (tests, in-process benchmarks) can share
// keys without sharing verification state. cache and cc may be nil.
func (r *Registry) Accelerated(cache *VerifyCache, batchVerify bool, cc *metrics.CryptoCounters) *Registry {
	return &Registry{mu: r.mu, keys: r.keys, cache: cache, batch: batchVerify, cc: cc}
}

// snapshot returns the current immutable key set. Callers must not mutate it.
func (r *Registry) snapshot() map[NodeID]*verifyKey {
	return *r.keys.Load()
}

// key returns id's verification state, if id is registered.
func (r *Registry) key(id NodeID) (*verifyKey, bool) {
	k, ok := r.snapshot()[id]
	return k, ok
}

// Add registers a public key, e.g. a data center key learned at setup. The
// key set is copied so concurrent Verify calls keep reading a consistent
// snapshot without locking. Replacing an existing id's key is safe with
// respect to the verified-signature cache: entries are keyed by the public
// key they verified under, so proofs made under the old key stop hitting the
// moment the key changes. It is safe for the per-key verification state
// too: Add installs a fresh one, never reusing the old key's point or
// tables.
func (r *Registry) Add(id NodeID, pub ed25519.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snapshot()
	keys := make(map[NodeID]*verifyKey, len(old)+1)
	for k, v := range old {
		keys[k] = v
	}
	keys[id] = &verifyKey{pub: pub}
	r.keys.Store(&keys)
}

// PublicKey returns the key for id, if known.
func (r *Registry) PublicKey(id NodeID) (ed25519.PublicKey, bool) {
	k, ok := r.key(id)
	if !ok {
		return nil, false
	}
	return k.pub, true
}

// IDs returns all registered node IDs in ascending order.
func (r *Registry) IDs() []NodeID {
	keys := r.snapshot()
	ids := make([]NodeID, 0, len(keys))
	for id := range keys {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Len reports the number of registered keys.
func (r *Registry) Len() int {
	return len(r.snapshot())
}

// Verify checks that sig is a valid signature by id over msg, using the
// cofactored single equation — VerifySignature's deterministic accept set,
// shared with the batch path — evaluated on id's cached verification state:
// the key is not decoded again, and [s]B − [k]A runs on fixed-base tables
// of both B and the key. When the registry carries a verified-signature
// cache, a previously verified (id, key, msg, sig) tuple returns immediately
// without touching the curve; fresh successes are recorded for next time.
// Hashing msg for the cache key costs ~1% of the scalar multiplication it
// saves on a hit.
func (r *Registry) Verify(id NodeID, msg, sig []byte) error {
	key, ok := r.key(id)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownSigner, id)
	}
	if len(sig) != ed25519.SignatureSize {
		return fmt.Errorf("%w: from %v", ErrInvalidSignature, id)
	}
	var d Digest
	if r.cache != nil {
		d = Hash(msg)
		if r.cache.Seen(id, key.pub, d, sig) {
			return nil
		}
	}
	r.cc.AddScalarVerify()
	if !key.verify(msg, sig) {
		return fmt.Errorf("%w: from %v", ErrInvalidSignature, id)
	}
	r.cache.Note(id, key.pub, d, sig)
	return nil
}

// Counters returns the registry's crypto instrumentation, if any.
func (r *Registry) Counters() *metrics.CryptoCounters { return r.cc }

// Cache returns the registry's verified-signature cache, if any.
func (r *Registry) Cache() *VerifyCache { return r.cache }

// BatchEnabled reports whether NewBatchVerifier will use the multi-scalar
// batch equation (true) or fall back to sequential scalar verifies (false).
func (r *Registry) BatchEnabled() bool { return r.batch }
