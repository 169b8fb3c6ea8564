// Package crypt provides the cryptographic substrate the secure processor
// relies on (§4.1, §5, §8 of the paper):
//
//   - probabilistic symmetric encryption (AES-128-CTR) used for ORAM buckets
//     and all off-chip data: each Cipher encrypts through one keystream
//     opened from a random IV, and every encryption stores the counter block
//     it starts at as its nonce, so no nonce repeats under one Cipher;
//   - HMAC-SHA256 for binding programs, data and leakage parameters (§10);
//   - RSA-OAEP key transport for the run-once session-key exchange (§8);
//   - a fixed-latency accounting wrapper, because the paper requires that
//     "all encryption routines are fixed latency" (§4.1).
//
// Everything is implemented with the Go standard library.
package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// KeySize is the symmetric key size in bytes (AES-128, matching the paper's
// AES-128 chunk pipeline in §9.1.4).
const KeySize = 16

// NonceSize is the per-encryption nonce size prepended to each ciphertext.
const NonceSize = 16

// MACSize is the HMAC-SHA256 tag size.
const MACSize = sha256.Size

// ErrKeyErased is returned when a session key has been forgotten (run-once
// replay prevention, §8).
var ErrKeyErased = errors.New("crypt: session key erased")

// ErrAuthFailed is returned when a MAC or padding check fails.
var ErrAuthFailed = errors.New("crypt: authentication failed")

// Key is a symmetric session key.
type Key [KeySize]byte

// NewKey samples a uniformly random key from r (crypto/rand.Reader in
// production; a deterministic reader in tests).
func NewKey(r io.Reader) (Key, error) {
	var k Key
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return Key{}, fmt.Errorf("crypt: sampling key: %w", err)
	}
	return k, nil
}

// Zero overwrites the key in place. After Zero the key must not be used; it
// models the processor "forgetting" K at session end (§8).
func (k *Key) Zero() {
	for i := range k {
		k[i] = 0
	}
}

// Cipher performs probabilistic encryption under a fixed key. It owns one
// AES-CTR keystream, opened on its first encryption from a 16-byte IV drawn
// from its reader. Each encryption stores the counter block it starts at as
// its nonce, takes the next ⌈n/16⌉ whole blocks of keystream and advances
// the counter past them, so nonces never repeat under one Cipher and
// encrypting identical plaintexts yields unrelated ciphertexts — the
// property the Path ORAM write-back path and the root-bucket probing attack
// (§3.2) both depend on. The stored format is nonce ‖ CTR ciphertext with a
// 128-bit big-endian counter, the same as cipher.NewCTR's, so decryption
// needs nothing but the nonce.
//
// A Cipher is not safe for concurrent use; each ORAM owns its own, which
// mirrors the single hardware AES pipeline per controller.
type Cipher struct {
	key    Key
	block  cipher.Block
	rand   io.Reader
	erased bool

	// Write half: the keystream, and next, the counter block it starts its
	// next encryption at (that encryption's nonce).
	stream cipher.Stream
	next   [aes.BlockSize]byte

	// Read half: the counter blocks xorKeyStream encrypts per XOR pass. The
	// write half also discards a partial last block's unused tail into it.
	ks [readBlocks * aes.BlockSize]byte
}

// readBlocks is the number of counter blocks xorKeyStream encrypts back to
// back before one XOR pass.
const readBlocks = 8

// NewCipher builds a Cipher from key, drawing its keystream IV from rnd. If
// rnd is nil, crypto/rand.Reader is used.
func NewCipher(key Key, rnd io.Reader) *Cipher {
	if rnd == nil {
		rnd = rand.Reader
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// KeySize is a valid AES key size; any failure is a bug.
		panic(err)
	}
	return &Cipher{key: key, block: block, rand: rnd}
}

// Erase forgets the key, and with it the expanded key schedules, the write
// keystream's counter and the keystream scratch. All later operations fail
// with ErrKeyErased.
func (c *Cipher) Erase() {
	*c = Cipher{erased: true}
}

// Erased reports whether the key has been forgotten.
func (c *Cipher) Erased() bool { return c.erased }

// Encrypt returns nonce ‖ CTR(key, nonce, plaintext). The output length is
// len(plaintext) + NonceSize, so fixed-size buckets stay fixed size.
func (c *Cipher) Encrypt(plaintext []byte) ([]byte, error) {
	out := make([]byte, NonceSize+len(plaintext))
	if err := c.EncryptTo(out, plaintext); err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptTo writes nonce ‖ CTR(key, nonce, plaintext) into dst, which must
// be exactly len(plaintext) + NonceSize bytes. It is the allocation-free
// core of Encrypt: the ORAM write-back path encrypts buckets directly into
// the storage arena through it. dst must not overlap plaintext.
func (c *Cipher) EncryptTo(dst, plaintext []byte) error {
	if c.erased {
		return ErrKeyErased
	}
	if len(dst) != NonceSize+len(plaintext) {
		return fmt.Errorf("crypt: destination is %d bytes, want %d", len(dst), NonceSize+len(plaintext))
	}
	return c.encrypt(dst[:NonceSize], dst[NonceSize:], plaintext)
}

// encrypt writes the next counter block into nonce and XORs src with the
// keystream from it into dst; dst and src overlap exactly or not at all.
func (c *Cipher) encrypt(nonce, dst, src []byte) error {
	if c.stream == nil {
		if _, err := io.ReadFull(c.rand, c.next[:]); err != nil {
			return fmt.Errorf("crypt: sampling IV: %w", err)
		}
		c.stream = cipher.NewCTR(c.block, c.next[:])
	}
	copy(nonce, c.next[:])
	c.stream.XORKeyStream(dst, src)
	if tail := len(src) % aes.BlockSize; tail != 0 {
		c.stream.XORKeyStream(c.ks[tail:aes.BlockSize], c.ks[tail:aes.BlockSize])
	}
	hi, lo := binary.BigEndian.Uint64(c.next[:8]), binary.BigEndian.Uint64(c.next[8:])
	lo, carry := bits.Add64(lo, uint64(len(src)+aes.BlockSize-1)/aes.BlockSize, 0)
	binary.BigEndian.PutUint64(c.next[:8], hi+carry)
	binary.BigEndian.PutUint64(c.next[8:], lo)
	return nil
}

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(ciphertext []byte) ([]byte, error) {
	if c.erased {
		return nil, ErrKeyErased
	}
	if len(ciphertext) < NonceSize {
		return nil, fmt.Errorf("crypt: ciphertext too short (%d bytes)", len(ciphertext))
	}
	out := make([]byte, len(ciphertext)-NonceSize)
	if err := c.DecryptTo(out, ciphertext); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptTo inverts EncryptTo, writing the plaintext into dst, which must be
// exactly len(ciphertext) - NonceSize bytes. dst must not overlap
// ciphertext. Like EncryptTo it performs no allocation.
func (c *Cipher) DecryptTo(dst, ciphertext []byte) error {
	if c.erased {
		return ErrKeyErased
	}
	if len(ciphertext) < NonceSize {
		return fmt.Errorf("crypt: ciphertext too short (%d bytes)", len(ciphertext))
	}
	if len(dst) != len(ciphertext)-NonceSize {
		return fmt.Errorf("crypt: destination is %d bytes, want %d", len(dst), len(ciphertext)-NonceSize)
	}
	c.xorKeyStream(dst, ciphertext[NonceSize:], ciphertext[:NonceSize])
	return nil
}

// xorKeyStream XORs src with the AES-CTR keystream for nonce into dst; it
// decrypts and opens seals, whose nonces are whatever was stored. Per pass
// it writes up to readBlocks counter blocks into the Cipher's scratch, then
// encrypts them back to back (no block waits on the previous one's counter
// arithmetic, so the AES rounds overlap) and XORs the chunk once. The
// counter layout and 128-bit big-endian increment are crypto/cipher.NewCTR's.
// dst and src overlap exactly or not at all.
func (c *Cipher) xorKeyStream(dst, src, nonce []byte) {
	hi, lo := binary.BigEndian.Uint64(nonce[:8]), binary.BigEndian.Uint64(nonce[8:])
	ks, block := c.ks[:], c.block
	for len(src) > 0 {
		n := min(len(src), len(ks))
		for off := 0; off < n; off += aes.BlockSize {
			binary.BigEndian.PutUint64(ks[off:], hi)
			binary.BigEndian.PutUint64(ks[off+8:], lo)
			var carry uint64
			lo, carry = bits.Add64(lo, 1, 0)
			hi += carry
		}
		for off := 0; off < n; off += aes.BlockSize {
			block.Encrypt(ks[off:off+aes.BlockSize], ks[off:off+aes.BlockSize])
		}
		subtle.XORBytes(dst[:n], src[:n], ks[:n])
		dst, src = dst[n:], src[n:]
	}
}

// MAC computes HMAC-SHA256 over the concatenation of the given parts, each
// length-prefixed so the encoding is unambiguous.
func (c *Cipher) MAC(parts ...[]byte) ([]byte, error) {
	if c.erased {
		return nil, ErrKeyErased
	}
	m := hmac.New(sha256.New, c.key[:])
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		m.Write(lenBuf[:])
		m.Write(p)
	}
	return m.Sum(nil), nil
}

// VerifyMAC checks tag against MAC(parts...) in constant time.
func (c *Cipher) VerifyMAC(tag []byte, parts ...[]byte) error {
	want, err := c.MAC(parts...)
	if err != nil {
		return err
	}
	if !hmac.Equal(tag, want) {
		return ErrAuthFailed
	}
	return nil
}

// Hash returns SHA-256 of data; used for certified program hashes (§10).
func Hash(data []byte) [sha256.Size]byte { return sha256.Sum256(data) }

// DeviceKeyPair is the secure processor's manufacturing key pair used for
// session-key transport (step 1 of §8's expanded protocol).
type DeviceKeyPair struct {
	priv *rsa.PrivateKey
}

// GenerateDeviceKeyPair creates the processor's long-lived key pair.
// bits=2048 is used in examples; tests may use smaller keys for speed.
func GenerateDeviceKeyPair(rnd io.Reader, bits int) (*DeviceKeyPair, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	priv, err := rsa.GenerateKey(rnd, bits)
	if err != nil {
		return nil, fmt.Errorf("crypt: generating device key: %w", err)
	}
	return &DeviceKeyPair{priv: priv}, nil
}

// Public returns the public half, shipped with the processor's certificate.
func (d *DeviceKeyPair) Public() *rsa.PublicKey { return &d.priv.PublicKey }

// WrapKey encrypts the symmetric key k to the processor's public key
// (user side of the §8 protocol).
func WrapKey(rnd io.Reader, pub *rsa.PublicKey, k Key) ([]byte, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	ct, err := rsa.EncryptOAEP(sha256.New(), rnd, pub, k[:], []byte("tcoram-session"))
	if err != nil {
		return nil, fmt.Errorf("crypt: wrapping key: %w", err)
	}
	return ct, nil
}

// UnwrapKey recovers a wrapped symmetric key (processor side).
func (d *DeviceKeyPair) UnwrapKey(ciphertext []byte) (Key, error) {
	pt, err := rsa.DecryptOAEP(sha256.New(), nil, d.priv, ciphertext, []byte("tcoram-session"))
	if err != nil {
		return Key{}, ErrAuthFailed
	}
	if len(pt) != KeySize {
		return Key{}, ErrAuthFailed
	}
	var k Key
	copy(k[:], pt)
	return k, nil
}

// Equal reports whether two byte slices are equal (non-constant-time; for
// tests and non-secret comparisons).
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }
