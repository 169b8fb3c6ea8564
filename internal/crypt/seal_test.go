package crypt

import (
	"bytes"
	"errors"
	"testing"
)

// TestSealInPlaceMatchesSeal pins the in-place sealer to the Seal format:
// what SealInPlace leaves in a buffer opens with OpenSealed, what Seal
// returns opens in place, and any flipped byte fails authentication without
// disturbing the blob.
func TestSealInPlaceMatchesSeal(t *testing.T) {
	c := newTestCipher(3)
	s := NewSealer(c)
	plain := bytes.Repeat([]byte("trusted state "), 100)

	blob := append(make([]byte, SealOverhead), plain...)
	if err := s.SealInPlace(blob); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, plain[:28]) {
		t.Fatal("sealed blob carries the plaintext in the clear")
	}
	got, err := OpenSealed(c, blob)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("OpenSealed of an in-place seal: %v", err)
	}

	sealed, err := Seal(c, plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, MACSize, SealOverhead, len(sealed) - 1} {
		tampered := bytes.Clone(sealed)
		tampered[off] ^= 1
		before := bytes.Clone(tampered)
		if _, err := s.OpenInPlace(tampered); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("flip at %d: got %v, want ErrAuthFailed", off, err)
		}
		if !bytes.Equal(tampered, before) {
			t.Fatalf("failed open at %d modified the blob", off)
		}
	}
	got, err = s.OpenInPlace(sealed)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("OpenInPlace of a Seal blob: %v", err)
	}
	if _, err := s.OpenInPlace(make([]byte, SealOverhead-1)); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("short blob: got %v, want ErrAuthFailed", err)
	}
}

// TestSealInPlaceZeroAllocs pins the point of the Sealer: sealing and
// opening a reused buffer allocates nothing once the HMAC state is warm.
func TestSealInPlaceZeroAllocs(t *testing.T) {
	s := NewSealer(newTestCipher(4))
	blob := make([]byte, SealOverhead+20<<10)
	if err := s.SealInPlace(blob); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.SealInPlace(blob); err != nil {
			t.Fatal(err)
		}
		if _, err := s.OpenInPlace(blob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("seal + open in place allocates %v per run, want 0", allocs)
	}
}

// TestSealerAfterErase: an erased cipher seals and opens nothing.
func TestSealerAfterErase(t *testing.T) {
	c := newTestCipher(5)
	s := NewSealer(c)
	c.Erase()
	if err := s.SealInPlace(make([]byte, SealOverhead+8)); !errors.Is(err, ErrKeyErased) {
		t.Fatalf("seal after erase: got %v, want ErrKeyErased", err)
	}
	if _, err := s.OpenInPlace(make([]byte, SealOverhead+8)); !errors.Is(err, ErrKeyErased) {
		t.Fatalf("open after erase: got %v, want ErrKeyErased", err)
	}
}
