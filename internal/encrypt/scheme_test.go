package encrypt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var testKey = []byte("0123456789abcdef")

func TestCounterRoundTrip(t *testing.T) {
	s, err := NewCounterScheme(testKey, 16)
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("the quick brown fox jumps over the lazy dog, twice over!")
	ct := make([]byte, len(plain)+s.Overhead(3))
	if err := s.Seal(5, plain, 3, ct); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(plain))
	if err := s.Open(5, ct, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Errorf("round trip mismatch")
	}
}

func TestCounterRandomizes(t *testing.T) {
	// Randomized encryption: sealing identical plaintext twice must give
	// different ciphertexts (Section 2: the bitstring of every block
	// changes with overwhelming probability).
	s, _ := NewCounterScheme(testKey, 4)
	plain := make([]byte, 48)
	a := make([]byte, len(plain)+8)
	b := make([]byte, len(plain)+8)
	if err := s.Seal(1, plain, 2, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(1, plain, 2, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("two seals produced identical ciphertexts")
	}
	if s.Counter(1) != 2 {
		t.Errorf("counter=%d want 2", s.Counter(1))
	}
}

func TestCounterBucketSeparation(t *testing.T) {
	// Seeding the OTP with BucketID keeps pads of distinct buckets
	// distinct: the same plaintext at the same counter value must encrypt
	// differently in different buckets.
	s, _ := NewCounterScheme(testKey, 4)
	plain := make([]byte, 32)
	a := make([]byte, 40)
	b := make([]byte, 40)
	if err := s.Seal(0, plain, 1, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(1, plain, 1, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a[8:], b[8:]) {
		t.Error("same pad used for two distinct buckets")
	}
	// Opening with the wrong bucket ID must not reveal the plaintext.
	got := make([]byte, 32)
	if err := s.Open(2, a, 1, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, plain) {
		t.Error("wrong-bucket decryption yielded the plaintext")
	}
}

func TestCounterValidation(t *testing.T) {
	if _, err := NewCounterScheme([]byte("short"), 4); err == nil {
		t.Error("bad key accepted")
	}
	s, _ := NewCounterScheme(testKey, 4)
	if err := s.Seal(9, make([]byte, 8), 1, make([]byte, 16)); err == nil {
		t.Error("out-of-range bucket accepted")
	}
	if err := s.Seal(0, make([]byte, 8), 1, make([]byte, 15)); err == nil {
		t.Error("wrong seal buffer size accepted")
	}
	if err := s.Open(0, make([]byte, 4), 1, nil); err == nil {
		t.Error("truncated ciphertext accepted")
	}
	if err := s.Open(9, make([]byte, 16), 1, make([]byte, 8)); err == nil {
		t.Error("out-of-range bucket open accepted")
	}
}

func TestStrawmanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, err := NewStrawmanScheme(testKey, rng)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 3*20)
	rng.Read(plain)
	ct := make([]byte, len(plain)+s.Overhead(3))
	if err := s.Seal(0, plain, 3, ct); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(plain))
	if err := s.Open(0, ct, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Error("round trip mismatch")
	}
}

func TestStrawmanRandomizes(t *testing.T) {
	s, _ := NewStrawmanScheme(testKey, rand.New(rand.NewSource(2)))
	plain := make([]byte, 32)
	a := make([]byte, 32+16)
	b := make([]byte, 32+16)
	if err := s.Seal(0, plain, 1, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(0, plain, 1, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("strawman reused a per-block key")
	}
}

func TestStrawmanOverheadIs2ZTimesCounter(t *testing.T) {
	// Section 2.2.2: the counter scheme reduces the strawman's overhead by
	// a factor of 2Z. With 64-bit counters: strawman 128 bits/block vs 64
	// bits/bucket.
	straw, _ := NewStrawmanScheme(testKey, rand.New(rand.NewSource(3)))
	ctr, _ := NewCounterScheme(testKey, 1)
	for _, z := range []int{1, 2, 4, 8} {
		if got, want := straw.Overhead(z), 16*z; got != want {
			t.Errorf("strawman overhead(z=%d)=%d want %d", z, got, want)
		}
		if got := ctr.Overhead(z); got != 8 {
			t.Errorf("counter overhead(z=%d)=%d want 8", z, got)
		}
		if straw.Overhead(z) != 2*z*ctr.Overhead(z) {
			t.Errorf("z=%d: overhead ratio is not 2Z", z)
		}
	}
}

func TestStrawmanValidation(t *testing.T) {
	if _, err := NewStrawmanScheme(testKey, nil); err == nil {
		t.Error("nil randomness accepted")
	}
	s, _ := NewStrawmanScheme(testKey, rand.New(rand.NewSource(4)))
	if err := s.Seal(0, make([]byte, 7), 2, make([]byte, 39)); err == nil {
		t.Error("indivisible plaintext accepted")
	}
	if err := s.Seal(0, make([]byte, 8), 2, make([]byte, 10)); err == nil {
		t.Error("wrong output size accepted")
	}
	if err := s.Open(0, make([]byte, 7), 2, nil); err == nil {
		t.Error("indivisible ciphertext accepted")
	}
}

func TestSchemesRoundTripProperty(t *testing.T) {
	ctr, _ := NewCounterScheme(testKey, 64)
	straw, _ := NewStrawmanScheme(testKey, rand.New(rand.NewSource(5)))
	f := func(seed int64, zRaw, lenRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		z := int(zRaw%4) + 1
		slot := int(lenRaw%40) + 1
		plain := make([]byte, z*slot)
		rng.Read(plain)
		bucket := rng.Uint64() % 64
		for _, s := range []Scheme{ctr, straw} {
			ct := make([]byte, len(plain)+s.Overhead(z))
			if err := s.Seal(bucket, plain, z, ct); err != nil {
				return false
			}
			got := make([]byte, len(plain))
			if err := s.Open(bucket, ct, z, got); err != nil {
				return false
			}
			if !bytes.Equal(got, plain) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSchemeNames(t *testing.T) {
	ctr, _ := NewCounterScheme(testKey, 1)
	straw, _ := NewStrawmanScheme(testKey, rand.New(rand.NewSource(6)))
	if ctr.Name() != "counter" || straw.Name() != "strawman" || (PlainScheme{}).Name() != "none" {
		t.Error("scheme names wrong")
	}
}

func TestBucketSizeHelpers(t *testing.T) {
	ctr, _ := NewCounterScheme(testKey, 1)
	if got := PlainBucketBytes(3, 128); got != 3*140 {
		t.Errorf("PlainBucketBytes=%d want 420", got)
	}
	if got := CipherBucketBytes(ctr, 3, 128); got != 3*140+8 {
		t.Errorf("CipherBucketBytes=%d want 428", got)
	}
	if got := PaddedBucketBytes(ctr, 3, 128); got != 448 {
		t.Errorf("PaddedBucketBytes=%d want 448", got)
	}
	// The identity scheme adds nothing: a plaintext record is the bare
	// serialization padded to the access granularity.
	if got := PaddedBucketBytes(PlainScheme{}, 3, 128); got != 448 {
		t.Errorf("plain PaddedBucketBytes=%d want 448", got)
	}
	if got := PaddedBucketBytes(PlainScheme{}, 3, 0); got != 64 {
		t.Errorf("plain metadata-only PaddedBucketBytes=%d want 64", got)
	}
}
