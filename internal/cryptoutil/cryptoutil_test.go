package cryptoutil

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"))
	b := Hash([]byte("hello"))
	if a != b {
		t.Fatalf("same input hashed to different digests: %v vs %v", a, b)
	}
	c := Hash([]byte("hello!"))
	if a == c {
		t.Fatal("different inputs hashed to the same digest")
	}
}

func TestHashConcatBoundaries(t *testing.T) {
	// Length prefixes must make ("ab","c") differ from ("a","bc").
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("HashConcat does not separate part boundaries")
	}
}

func TestHashConcatProperty(t *testing.T) {
	f := func(parts [][]byte) bool {
		return HashConcat(parts...) == HashConcat(parts...)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigestIsZero(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Fatal("zero digest not reported as zero")
	}
	if Hash([]byte("x")).IsZero() {
		t.Fatal("nonzero digest reported as zero")
	}
}

func TestDigestBytesRoundTrip(t *testing.T) {
	d := Hash([]byte("round trip"))
	got, err := DigestFromBytes(d.Bytes())
	if err != nil {
		t.Fatalf("DigestFromBytes: %v", err)
	}
	if got != d {
		t.Fatalf("round trip mismatch: %v vs %v", got, d)
	}
	if _, err := DigestFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("short slice accepted as digest")
	}
}

func TestDigestBytesIsCopy(t *testing.T) {
	d := Hash([]byte("aliasing"))
	b := d.Bytes()
	b[0] ^= 0xff
	if bytes.Equal(b, d[:]) {
		t.Fatal("Bytes returned an aliased slice")
	}
}

func TestSignVerify(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	d := Hash([]byte("sign me"))
	sig, err := kp.SignDigest(d)
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}
	if !kp.Public().VerifyDigest(d, sig) {
		t.Fatal("valid signature rejected")
	}
	other := Hash([]byte("different message"))
	if kp.Public().VerifyDigest(other, sig) {
		t.Fatal("signature accepted for wrong digest")
	}
	kp2, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	if kp2.Public().VerifyDigest(d, sig) {
		t.Fatal("signature accepted under wrong key")
	}
	if len(sig) != 64 {
		t.Fatalf("signature is %d bytes, want 64", len(sig))
	}
	if kp.Public().VerifyDigest(d, sig[:63]) {
		t.Fatal("63-byte signature accepted")
	}
	if (PublicKey{}).VerifyDigest(d, sig) {
		t.Fatal("zero public key verified a signature")
	}
	again, err := kp.SignDigest(d)
	if err != nil || !bytes.Equal(again, sig) {
		t.Fatal("signing the same digest twice gave different signatures")
	}
}

// Signing allocates only the signature and verifying allocates nothing:
// a block signature is made by every node for every block.
func TestSignAndVerifyAllocationBudget(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	pub := kp.Public()
	d := Hash([]byte("budget"))
	var sig []byte
	if n := testing.AllocsPerRun(20, func() { sig, _ = kp.SignDigest(d) }); n > 1 {
		t.Fatalf("SignDigest makes %.0f allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if !pub.VerifyDigest(d, sig) {
			t.Fatal("valid signature rejected")
		}
	}); n != 0 {
		t.Fatalf("VerifyDigest makes %.0f allocations, want 0", n)
	}
}

func BenchmarkSignDigest(b *testing.B) {
	kp, err := GenerateKeyPair()
	if err != nil {
		b.Fatalf("GenerateKeyPair: %v", err)
	}
	d := Hash([]byte("bench"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kp.SignDigest(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyDigest(b *testing.B) {
	kp, err := GenerateKeyPair()
	if err != nil {
		b.Fatalf("GenerateKeyPair: %v", err)
	}
	pub := kp.Public()
	d := Hash([]byte("bench"))
	sig, err := kp.SignDigest(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !pub.VerifyDigest(d, sig) {
			b.Fatal("valid signature rejected")
		}
	}
}

func TestPublicKeySerialization(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	der, err := kp.Public().Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	parsed, err := ParsePublicKey(der)
	if err != nil {
		t.Fatalf("ParsePublicKey: %v", err)
	}
	d := Hash([]byte("serialize"))
	sig, err := kp.SignDigest(d)
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}
	if !parsed.VerifyDigest(d, sig) {
		t.Fatal("parsed key does not verify signature")
	}
	if _, err := ParsePublicKey([]byte("junk")); err == nil {
		t.Fatal("junk accepted as public key")
	}
	// A well-formed key of another scheme is refused by name.
	ec, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatalf("ecdsa key: %v", err)
	}
	ecDER, err := x509.MarshalPKIXPublicKey(&ec.PublicKey)
	if err != nil {
		t.Fatalf("marshal ecdsa key: %v", err)
	}
	if _, err := ParsePublicKey(ecDER); err == nil || !strings.Contains(err.Error(), "ecdsa") {
		t.Fatalf("a PKIX ECDSA P-256 key: err = %v, want a refusal naming its type", err)
	}
}

func TestVerifyNilKey(t *testing.T) {
	var pk PublicKey
	if pk.Verify([]byte("d"), []byte("s")) {
		t.Fatal("nil public key verified a signature")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	reg.Register("node0", kp.Public())

	if _, ok := reg.Lookup("node0"); !ok {
		t.Fatal("registered identity not found")
	}
	if _, ok := reg.Lookup("ghost"); ok {
		t.Fatal("unknown identity found")
	}

	d := Hash([]byte("registry"))
	sig, err := kp.SignDigest(d)
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}
	if !reg.Verify("node0", d[:], sig) {
		t.Fatal("registry rejected valid signature")
	}
	if reg.Verify("ghost", d[:], sig) {
		t.Fatal("registry verified unknown identity")
	}

	reg.Register("alpha", kp.Public())
	names := reg.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "node0" {
		t.Fatalf("Names not sorted or wrong: %v", names)
	}

	reg.Remove("node0")
	if _, ok := reg.Lookup("node0"); ok {
		t.Fatal("removed identity still present")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			name := string(rune('a' + n))
			for j := 0; j < 100; j++ {
				reg.Register(name, kp.Public())
				reg.Lookup(name)
				reg.Names()
			}
		}(i)
	}
	wg.Wait()
	if got := len(reg.Names()); got != 8 {
		t.Fatalf("expected 8 identities, got %d", got)
	}
}
