package main

import (
	"math/rand"
	"time"

	"tcoram/internal/crypt"
)

func probeCrypt(out map[string]float64, blocksLog2 int, scale float64) error {
	g, _ := probeGeometry(blocksLog2)
	var key crypt.Key
	c := crypt.NewCipher(key, rand.New(rand.NewSource(1)))
	pt := make([]byte, g.BucketPlainBytes())
	ct := make([]byte, g.BucketCipherBytes())
	iters := int(200000 * scale)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := c.EncryptTo(ct, pt); err != nil {
			return err
		}
	}
	out["crypt.encrypt_bucket_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if err := c.DecryptTo(pt, ct); err != nil {
			return err
		}
	}
	out["crypt.decrypt_bucket_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(iters)

	state := make([]byte, 64<<10)
	seals := int(300 * scale)
	var blob []byte
	var err error
	t0 = time.Now()
	for i := 0; i < seals; i++ {
		if blob, err = crypt.Seal(c, state); err != nil {
			return err
		}
	}
	out["crypt.seal_us_per_64kb"] = float64(time.Since(t0).Microseconds()) / float64(seals)
	t0 = time.Now()
	for i := 0; i < seals; i++ {
		if _, err := crypt.OpenSealed(c, blob); err != nil {
			return err
		}
	}
	out["crypt.open_us_per_64kb"] = float64(time.Since(t0).Microseconds()) / float64(seals)
	return nil
}
