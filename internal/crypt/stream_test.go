package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/bits"
	"math/rand"
	"testing"
)

// addBlocks returns ctr + n as a 128-bit big-endian counter, and whether
// the sum wrapped past 2^128.
func addBlocks(ctr []byte, n uint64) ([]byte, bool) {
	lo, c := bits.Add64(binary.BigEndian.Uint64(ctr[8:]), n, 0)
	hi, wrap := bits.Add64(binary.BigEndian.Uint64(ctr[:8]), 0, c)
	out := binary.BigEndian.AppendUint64(nil, hi)
	return binary.BigEndian.AppendUint64(out, lo), wrap != 0
}

// blocksOf is ⌈n/16⌉, the keystream blocks an n-byte encryption takes.
func blocksOf(n int) uint64 { return uint64(n+aes.BlockSize-1) / aes.BlockSize }

// stdlibCTR is cipher.NewCTR over src from nonce: the reference keystream.
func stdlibCTR(t testing.TB, key Key, nonce, src []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(src))
	cipher.NewCTR(block, nonce).XORKeyStream(out, src)
	return out
}

// countingReader counts the calls and bytes read from r.
type countingReader struct {
	r            io.Reader
	calls, bytes int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.calls++
	n, err := c.r.Read(p)
	c.bytes += n
	return n, err
}

// TestNonceAdvancesByBlocksUsed pins the write keystream's counter
// discipline: each encryption's nonce is the previous one advanced by the
// ⌈n/16⌉ whole blocks the previous encryption took, and each ciphertext is
// cipher.NewCTR from its stored nonce — so decryption needs only the nonce.
func TestNonceAdvancesByBlocksUsed(t *testing.T) {
	c := newTestCipher(20)
	var prev []byte
	prevLen := 0
	for _, n := range []int{0, 1, 15, 16, 17, 288, 4096, 0, 33} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*13 + n)
		}
		ct := make([]byte, NonceSize+n)
		if err := c.EncryptTo(ct, msg); err != nil {
			t.Fatal(err)
		}
		nonce := ct[:NonceSize]
		if prev != nil {
			if want, _ := addBlocks(prev, blocksOf(prevLen)); !bytes.Equal(nonce, want) {
				t.Fatalf("after a %d-byte encryption the nonce is %x, want %x", prevLen, nonce, want)
			}
		}
		if !bytes.Equal(ct[NonceSize:], stdlibCTR(t, c.key, nonce, msg)) {
			t.Fatalf("n=%d: ciphertext is not cipher.NewCTR from its nonce", n)
		}
		prev, prevLen = bytes.Clone(nonce), n
	}
}

// TestCounterCarry runs the write stream and the read half across a carry
// out of the low 64-bit word and across the 2^128 wrap, with the IV
// injected through the Cipher's reader.
func TestCounterCarry(t *testing.T) {
	ff := bytes.Repeat([]byte{0xff}, 8)
	for name, iv := range map[string][]byte{
		"low word": append([]byte{0, 0, 0, 0, 0, 0, 0, 7}, ff...),
		"2^128":    append(bytes.Clone(ff), ff...),
	} {
		t.Run(name, func(t *testing.T) {
			iv[15] = 0xfe // two blocks before the carry
			key := Key{1, 2, 3}
			c := NewCipher(key, bytes.NewReader(iv))
			msg := bytes.Repeat([]byte("carry across the counter "), 4) // 100 B: 7 blocks
			ct := make([]byte, NonceSize+len(msg))
			if err := c.EncryptTo(ct, msg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ct[:NonceSize], iv) {
				t.Fatalf("first nonce %x, want the IV %x", ct[:NonceSize], iv)
			}
			if !bytes.Equal(ct[NonceSize:], stdlibCTR(t, key, iv, msg)) {
				t.Fatal("ciphertext across the carry diverges from cipher.NewCTR")
			}
			pt := make([]byte, len(msg))
			if err := c.DecryptTo(pt, ct); err != nil || !bytes.Equal(pt, msg) {
				t.Fatalf("DecryptTo across the carry: %v", err)
			}
			next := make([]byte, NonceSize+1)
			if err := c.EncryptTo(next, []byte{0}); err != nil {
				t.Fatal(err)
			}
			want, _ := addBlocks(iv, blocksOf(len(msg)))
			if !bytes.Equal(next[:NonceSize], want) {
				t.Fatalf("nonce after the carry %x, want %x", next[:NonceSize], want)
			}
		})
	}
}

// TestIVReadOnce is the count pin for "nonces are off the reader": a
// Cipher reads its reader once, 16 bytes, however many times it encrypts.
// An ORAM tree's reader is its leaf rng, so no encryption moves the leaf
// stream after the first.
func TestIVReadOnce(t *testing.T) {
	r := &countingReader{r: detRand{rand.New(rand.NewSource(21))}}
	c := NewCipher(Key{9}, r)
	s := NewSealer(c)
	msg := make([]byte, 288)
	ct := make([]byte, NonceSize+len(msg))
	for i := 0; i < 1000; i++ {
		if err := c.EncryptTo(ct, msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SealInPlace(make([]byte, SealOverhead+100)); err != nil {
		t.Fatal(err)
	}
	if r.calls != 1 || r.bytes != NonceSize {
		t.Fatalf("reader read %d times, %d bytes, over 1000 encryptions and a seal; want once, %d bytes", r.calls, r.bytes, NonceSize)
	}
}

// TestRandomNonceGolden decrypts a ciphertext and a sealed blob written
// before encryptions came from one keystream, when each nonce was 16 random
// bytes: data directories and checkpoint records from then still open.
func TestRandomNonceGolden(t *testing.T) {
	key := Key{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	c := NewCipher(key, nil)
	ct, _ := hex.DecodeString("89e0511fe8f29e479c2d8de9fb2cdb181adcc1a8aa6164352a134e7c379e37722eb6eba0d175ceef365e25081a61caeba6f796bcb3db671d3011c4f5dfc539")
	pt, err := c.Decrypt(ct)
	if err != nil || string(pt) != "sealed before the write keystream, random nonce" {
		t.Fatalf("old ciphertext decrypts to %q, %v", pt, err)
	}
	blob, _ := hex.DecodeString("58c57d674ec266fed6e41383fb05be3ba3ef57ad9520e636dd572ba24518e1cb8afeaab6677ad5f0ba57bceed23960bb43221702c1027c7641eb9018c0dc90e68325edc8769e71e2150590e3b5f08b0163b04b6e828509f91a2bf08e")
	pt, err = OpenSealed(c, blob)
	if err != nil || string(pt) != "checkpoint sealed before the write keystream" {
		t.Fatalf("old sealed blob opens to %q, %v", pt, err)
	}
}

// TestEraseDropsStream: Erase forgets the write keystream (which holds an
// expanded copy of the key) and the counter, not only the key.
func TestEraseDropsStream(t *testing.T) {
	c := newTestCipher(22)
	if err := c.EncryptTo(make([]byte, NonceSize+32), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if c.stream == nil {
		t.Fatal("no stream after an encryption")
	}
	c.Erase()
	if c.stream != nil || c.next != [NonceSize]byte{} {
		t.Fatal("Erase left the write keystream or its counter behind")
	}
}

// FuzzCipherStream encrypts an arbitrary sequence of plaintexts through one
// Cipher, from an IV the input picks, and checks that DecryptTo and
// cipher.NewCTR both invert every ciphertext and that each nonce is the
// previous one advanced by the blocks it took — strictly greater, unless
// the previous plaintext was empty or the counter wrapped past 2^128.
//
// The input is the IV (16 bytes, zero-padded), then records of a
// little-endian u16 length (mod 4097) followed by that many plaintext bytes
// (zero-padded when the input runs out).
func FuzzCipherStream(f *testing.F) {
	spec := func(iv byte, lens ...int) []byte {
		b := bytes.Repeat([]byte{iv}, NonceSize)
		for _, n := range lens {
			b = binary.LittleEndian.AppendUint16(b, uint16(n))
			b = append(b, bytes.Repeat([]byte{byte(n)}, n)...)
		}
		return b
	}
	f.Add(spec(0, 0, 1, 15, 16, 17, 288, 4096))
	f.Add(spec(0xff, 100, 0, 16, 33))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		iv := make([]byte, NonceSize)
		in = in[copy(iv, in):]
		key := Key{0xa5}
		c := NewCipher(key, bytes.NewReader(iv))
		prev, prevLen := iv, 0
		for i := 0; len(in) >= 2 && i < 64; i++ {
			n := int(binary.LittleEndian.Uint16(in)) % 4097
			in = in[2:]
			msg := make([]byte, n)
			in = in[copy(msg, in):]
			ct := make([]byte, NonceSize+n)
			if err := c.EncryptTo(ct, msg); err != nil {
				t.Fatal(err)
			}
			nonce := ct[:NonceSize]
			want, wrapped := addBlocks(prev, blocksOf(prevLen))
			if !bytes.Equal(nonce, want) {
				t.Fatalf("record %d: nonce %x, want %x", i, nonce, want)
			}
			if prevLen > 0 && !wrapped && bytes.Compare(nonce, prev) <= 0 {
				t.Fatalf("record %d: nonce %x does not exceed %x", i, nonce, prev)
			}
			pt := make([]byte, n)
			if err := c.DecryptTo(pt, ct); err != nil || !bytes.Equal(pt, msg) {
				t.Fatalf("record %d: DecryptTo does not invert a %d-byte encryption (%v)", i, n, err)
			}
			if !bytes.Equal(stdlibCTR(t, key, nonce, ct[NonceSize:]), msg) {
				t.Fatalf("record %d: cipher.NewCTR does not invert a %d-byte encryption", i, n)
			}
			prev, prevLen = bytes.Clone(nonce), n
		}
	})
}
