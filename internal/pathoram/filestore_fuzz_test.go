package pathoram

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenFileStorage throws arbitrary bytes at the bucket-file header
// check, the one parser between a file an offline adversary can rewrite and
// a serving store. The input is the file's head, zero-extended to a fuzzed
// length. OpenFileStorage must return a store exactly when the first 64
// bytes are the header CreateFileStorage writes for the geometry and the
// file holds every bucket, and an error otherwise — never a panic. Seeds: a
// real header, a truncated one, and one written for another geometry.
func FuzzOpenFileStorage(f *testing.F) {
	g := GeometryForBlocks(64, 3, 64)
	dir := f.TempDir()
	header := func(g Geometry) []byte {
		path := filepath.Join(dir, "seed.oram")
		s, err := CreateFileStorage(g, FileStorageConfig{Path: path})
		if err != nil {
			f.Fatal(err)
		}
		s.Close()
		image, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return image[:fileHeaderSize]
	}
	want := header(g)
	size := int64(fileHeaderSize) + int64(g.Buckets())*int64(g.BucketCipherBytes())
	f.Add(want, uint32(size))
	f.Add(want, uint32(size-1))
	f.Add(want[:fileHeaderSize/2], uint32(0))
	f.Add(header(GeometryForBlocks(64, 4, 64)), uint32(size))

	path := filepath.Join(dir, "fuzz.oram")
	f.Fuzz(func(t *testing.T, head []byte, n uint32) {
		if err := os.WriteFile(path, head, 0o600); err != nil {
			t.Fatal(err)
		}
		fileLen := max(int64(len(head)), int64(n)%(2*size))
		if fileLen > int64(len(head)) {
			if err := os.Truncate(path, fileLen); err != nil {
				t.Fatal(err)
			}
		}
		prefix := make([]byte, fileHeaderSize)
		copy(prefix, head)
		valid := fileLen >= size && bytes.Equal(prefix, want)

		s, err := OpenFileStorage(g, FileStorageConfig{Path: path})
		if err == nil {
			s.Close()
		}
		if valid != (err == nil) {
			t.Fatalf("%d-byte file with head %x: valid = %v, OpenFileStorage error = %v", fileLen, prefix, valid, err)
		}
	})
}
