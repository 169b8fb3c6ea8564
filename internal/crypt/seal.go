package crypt

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
)

// Seal and OpenSealed protect trusted-state checkpoints at rest: the blob
// written to disk is MAC(ciphertext) ‖ ciphertext, so an offline adversary
// who can rewrite the checkpoint file can neither read the trusted state
// (position maps and stash contents are access-pattern secrets) nor forge
// one that OpenSealed accepts. MAC-then-store over the ciphertext keeps
// verification ahead of decryption: tampered bytes are rejected before any
// decrypted data is interpreted.

// SealOverhead is the number of bytes a sealed blob adds to its plaintext:
// the MAC tag and the nonce, in that order, ahead of the ciphertext.
const SealOverhead = MACSize + NonceSize

// Sealer seals and opens blobs in place, in the Seal format, reusing one
// HMAC state: the checkpoint path encodes its payload behind SealOverhead
// bytes of headroom in one reused buffer and seals it there, so a steady
// stream of checkpoints allocates nothing. Like Cipher it is not safe for
// concurrent use.
type Sealer struct {
	c   *Cipher
	mac hash.Hash
	sum [MACSize]byte
	len [8]byte
}

// NewSealer returns a Sealer over c's key.
func NewSealer(c *Cipher) *Sealer {
	return &Sealer{c: c, mac: hmac.New(sha256.New, c.key[:])}
}

// tag computes the Seal MAC of ct — HMAC over the length-prefixed
// ciphertext, the same framing as Cipher.MAC(ct) — into dst[:0].
func (s *Sealer) tag(dst, ct []byte) []byte {
	s.mac.Reset()
	binary.LittleEndian.PutUint64(s.len[:], uint64(len(ct)))
	s.mac.Write(s.len[:])
	s.mac.Write(ct)
	return s.mac.Sum(dst[:0])
}

// SealInPlace seals blob[SealOverhead:] where it lies: it writes the
// Cipher's next counter block into the headroom as the nonce, encrypts the
// plaintext over itself and writes the MAC tag into the first MACSize
// bytes, leaving blob a Seal blob.
func (s *Sealer) SealInPlace(blob []byte) error {
	if s.c.erased {
		return ErrKeyErased
	}
	if len(blob) < SealOverhead {
		return fmt.Errorf("crypt: sealing: blob is %d bytes, below the %d-byte headroom", len(blob), SealOverhead)
	}
	ct := blob[MACSize:]
	if err := s.c.encrypt(ct[:NonceSize], ct[NonceSize:], ct[NonceSize:]); err != nil {
		return err
	}
	s.tag(blob[:MACSize], ct)
	return nil
}

// OpenInPlace verifies a Seal blob and decrypts it over itself, returning
// the plaintext (blob[SealOverhead:]). Any truncation or modification yields
// ErrAuthFailed, and then blob is left unchanged.
func (s *Sealer) OpenInPlace(blob []byte) ([]byte, error) {
	if s.c.erased {
		return nil, ErrKeyErased
	}
	if len(blob) < SealOverhead {
		return nil, ErrAuthFailed
	}
	ct := blob[MACSize:]
	if !hmac.Equal(blob[:MACSize], s.tag(s.sum[:], ct)) {
		return nil, ErrAuthFailed
	}
	s.c.xorKeyStream(ct[NonceSize:], ct[NonceSize:], ct[:NonceSize])
	return ct[NonceSize:], nil
}

// Seal returns MAC(Encrypt(plaintext)) ‖ Encrypt(plaintext).
func Seal(c *Cipher, plaintext []byte) ([]byte, error) {
	blob := make([]byte, SealOverhead+len(plaintext))
	copy(blob[SealOverhead:], plaintext)
	if err := NewSealer(c).SealInPlace(blob); err != nil {
		return nil, err
	}
	return blob, nil
}

// OpenSealed verifies and decrypts a Seal blob, returning ErrAuthFailed on
// any truncation or modification. blob is not modified.
func OpenSealed(c *Cipher, blob []byte) ([]byte, error) {
	return NewSealer(c).OpenInPlace(slices.Clone(blob))
}
