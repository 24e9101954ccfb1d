// Package cryptoutil provides the cryptographic substrate of the ordering
// service: Ed25519 identities (the one signature scheme for block,
// consensus, envelope and endorsement signatures), SHA-256 digests and hash
// chaining, an identity registry, and a parallel signing pool that mirrors
// the signing/sending worker threads of the BFT-SMaRt ordering node
// (Section 5.1 of the paper, evaluated in Figure 6).
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DigestSize is the size in bytes of all digests used by the system.
const DigestSize = sha256.Size

// Digest is a SHA-256 digest. It is the hash type used for block headers,
// batch hashes in the consensus protocol, and signature inputs.
type Digest [DigestSize]byte

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) Digest {
	return sha256.Sum256(data)
}

// HashConcat hashes the concatenation of all parts, each prefixed by its
// length so that part boundaries are unambiguous.
func HashConcat(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		putUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * (7 - i)))
	}
}

// IsZero reports whether the digest is all zeroes (the genesis previous-hash).
func (d Digest) IsZero() bool {
	return d == Digest{}
}

// Bytes returns the digest as a fresh byte slice.
func (d Digest) Bytes() []byte {
	out := make([]byte, DigestSize)
	copy(out, d[:])
	return out
}

// String returns a short hexadecimal prefix of the digest for logging.
func (d Digest) String() string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 0; i < 8; i++ {
		out[2*i] = hexdigits[d[i]>>4]
		out[2*i+1] = hexdigits[d[i]&0xf]
	}
	return string(out)
}

// DigestFromBytes converts a byte slice into a Digest. It returns an error if
// the slice does not have exactly DigestSize bytes.
func DigestFromBytes(b []byte) (Digest, error) {
	var d Digest
	if len(b) != DigestSize {
		return d, fmt.Errorf("digest must be %d bytes, got %d", DigestSize, len(b))
	}
	copy(d[:], b)
	return d, nil
}

// KeyPair is an Ed25519 signing identity, the one signature scheme of the
// ordering service: blocks, STOP-DATA messages, envelopes and endorsements
// are all signed with it, and the paper's Figure 6 measures its signature
// generation. Fabric v3 MSPs accept Ed25519 identities alongside ECDSA.
// Signing is deterministic and allocates only the 64-byte signature.
type KeyPair struct {
	priv ed25519.PrivateKey
}

// GenerateKeyPair creates a fresh Ed25519 key pair.
func GenerateKeyPair() (*KeyPair, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate ed25519 key: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// Sign signs digest (which must already be a hash) and returns the 64-byte
// Ed25519 signature.
func (k *KeyPair) Sign(digest []byte) ([]byte, error) {
	return ed25519.Sign(k.priv, digest), nil
}

// SignDigest signs a Digest value.
func (k *KeyPair) SignDigest(d Digest) ([]byte, error) {
	return k.Sign(d[:])
}

// Public returns the public half of the key pair.
func (k *KeyPair) Public() PublicKey {
	return PublicKey{pub: k.priv.Public().(ed25519.PublicKey)}
}

// PublicKey is an Ed25519 verification key.
type PublicKey struct {
	pub ed25519.PublicKey
}

// Verify reports whether sig is a valid signature of digest under the key.
// A key of the wrong length (the zero PublicKey included) verifies nothing.
func (p PublicKey) Verify(digest, sig []byte) bool {
	if len(p.pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(p.pub, digest, sig)
}

// VerifyDigest verifies a signature over a Digest value.
func (p PublicKey) VerifyDigest(d Digest, sig []byte) bool {
	return p.Verify(d[:], sig)
}

// Bytes serializes the public key in PKIX/DER form.
func (p PublicKey) Bytes() ([]byte, error) {
	if len(p.pub) != ed25519.PublicKeySize {
		return nil, errors.New("nil public key")
	}
	der, err := x509.MarshalPKIXPublicKey(p.pub)
	if err != nil {
		return nil, fmt.Errorf("marshal public key: %w", err)
	}
	return der, nil
}

// ParsePublicKey parses a PKIX/DER-encoded Ed25519 public key and refuses
// a key of any other type.
func ParsePublicKey(der []byte) (PublicKey, error) {
	key, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return PublicKey{}, fmt.Errorf("parse public key: %w", err)
	}
	ed, ok := key.(ed25519.PublicKey)
	if !ok {
		return PublicKey{}, fmt.Errorf("public key is %T, want ed25519.PublicKey", key)
	}
	return PublicKey{pub: ed}, nil
}

// Registry maps identity names (ordering nodes, peers, clients) to their
// public keys. It stands in for Fabric's membership service provider: every
// component that verifies a signature resolves the signer through a Registry.
// The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu   sync.RWMutex
	keys map[string]PublicKey
}

// NewRegistry creates an empty identity registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]PublicKey)}
}

// Register associates an identity name with a public key. Re-registering a
// name overwrites the previous key (used by reconfiguration).
func (r *Registry) Register(name string, key PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[name] = key
}

// Lookup returns the public key for name.
func (r *Registry) Lookup(name string) (PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	key, ok := r.keys[name]
	return key, ok
}

// Remove deletes an identity from the registry.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.keys, name)
}

// Names returns the sorted list of registered identity names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.keys))
	for name := range r.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Verify resolves name and verifies sig over digest, returning false for
// unknown identities.
func (r *Registry) Verify(name string, digest, sig []byte) bool {
	key, ok := r.Lookup(name)
	if !ok {
		return false
	}
	return key.Verify(digest, sig)
}
