package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// diskFile renders the on-disk bytes Put writes for key and val.
func diskFile(key string, val []byte, hdrLen int64) []byte {
	hdr, _ := json.Marshal(dheader{Key: key, Len: hdrLen, Sum: valueSum(val)})
	return append(append(hdr, '\n'), val...)
}

// FuzzDiskGet overwrites an indexed cache file with arbitrary bytes: Get
// must never panic, and a hit must return exactly the value bytes the
// file holds under a header whose key and checksum match them. A miss is
// counted as corrupt. The seed corpus runs with the ordinary tests.
func FuzzDiskGet(f *testing.F) {
	val := []byte("value")
	for _, seed := range [][]byte{
		diskFile("k", val, 5), diskFile("k", []byte("VALUE"), 5), diskFile("other", val, 5),
		diskFile("k", val, -1), diskFile("k", val, 1<<40), diskFile("k", val, 5)[:10],
		[]byte("garbage with no newline"), {},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		d, err := OpenDisk(dir, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		d.Put("k", val)
		if err := os.WriteFile(filepath.Join(dir, fileFor("k")), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := d.Get("k")
		if !ok {
			if st := d.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Fatalf("rejected file not counted as one corrupt miss: %+v", st)
			}
			return
		}
		i := bytes.IndexByte(data, '\n')
		var hdr dheader
		if i < 0 || json.Unmarshal(data[:i+1], &hdr) != nil {
			t.Fatalf("hit on a file with no parseable header: %q", data)
		}
		if hdr.Key != "k" || hdr.Sum != valueSum(got) || !bytes.Equal(data[i+1:], got) {
			t.Fatalf("hit returned %q, which does not verify against the file %q", got, data)
		}
	})
}
