package cluster

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DiskStats is a point-in-time snapshot of disk-tier counters.
type DiskStats struct {
	Entries         int
	Bytes, MaxBytes int64
	// Hits and Misses count Get lookups; Puts counts stored values;
	// Evictions counts budget evictions; Corrupt counts files skipped
	// and removed because their header, length, or checksum did not
	// verify (torn writes, truncation, bit rot).
	Hits, Misses, Puts, Evictions, Corrupt int64
	// IOErrs counts filesystem operations that failed on the
	// swallowed-error paths (temp-file cleanup, entry removal): the disk
	// tier stays an optimization, but the failures are observable.
	IOErrs int64
}

// dheader is the first line of every cache file: enough to rebuild the
// in-memory index on open and to verify the value bytes that follow.
type dheader struct {
	Key string `json:"key"`
	Len int64  `json:"len"`
	// Sum is the first 8 bytes of the value's SHA-256, hex-encoded.
	Sum string `json:"sum"`
}

// dentry is one indexed cache file.
type dentry struct {
	key  string
	file string // basename within the cache dir
	size int64  // whole-file size counted against the budget
}

// DiskCache is the disk-backed second cache tier: one file per key,
// written atomically (temp file in the same directory, fsync, rename),
// under a byte budget with least-recently-used eviction. The file
// format is a one-line JSON header (key, value length, value checksum)
// followed by the raw value bytes, so a reader can always tell a
// complete entry from a torn one: anything that fails to parse or
// verify is skipped and removed, never fatal.
//
// All methods are safe for concurrent use and a nil *DiskCache is a
// no-op (Get misses, Put drops), mirroring the repo's nil-recorder
// idiom so callers need no presence checks.
type DiskCache struct {
	mu    sync.Mutex
	dir   string
	max   int64
	cur   int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, puts, evictions, corrupt, ioErrs int64
}

// removeCounted deletes a file, folding failure into the ioErrs counter:
// a failed removal leaks bytes but never corrupts data, so it is counted
// rather than fatal. Called with d.mu held (or before d is published).
func (d *DiskCache) removeCounted(path string) {
	if err := os.Remove(path); err != nil {
		d.ioErrs++
	}
}

// cacheExt marks complete cache files; temp files use tmpPrefix and are
// ignored (and swept) by Open.
const (
	cacheExt  = ".ce"
	tmpPrefix = ".tmp-"
)

// OpenDisk opens (creating if needed) a disk cache rooted at dir with
// the given byte budget (<= 0 means 256 MiB). Existing complete entries
// are indexed oldest-first by modification time so a restarted process
// is immediately warm; leftover temp files and corrupt entries are
// removed.
func OpenDisk(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: open disk cache: %w", err)
	}
	d := &DiskCache{
		dir:   dir,
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: scan disk cache: %w", err)
	}
	type found struct {
		e       dentry
		modUnix int64
	}
	var scan []found
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			d.removeCounted(filepath.Join(dir, name)) // torn write from a crash
			continue
		}
		if !strings.HasSuffix(name, cacheExt) {
			continue
		}
		path := filepath.Join(dir, name)
		hdr, size, ok := readHeader(path)
		if !ok {
			d.removeCounted(path)
			d.corrupt++
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		scan = append(scan, found{
			e:       dentry{key: hdr.Key, file: name, size: size},
			modUnix: info.ModTime().UnixNano(),
		})
	}
	// Oldest first, name-tiebroken, so the rebuilt LRU order is
	// deterministic and the most recently written entries evict last.
	sort.Slice(scan, func(i, j int) bool {
		if scan[i].modUnix != scan[j].modUnix {
			return scan[i].modUnix < scan[j].modUnix
		}
		return scan[i].e.file < scan[j].e.file
	})
	for _, f := range scan {
		e := f.e
		d.items[e.key] = d.ll.PushFront(&e)
		d.cur += e.size
	}
	d.evictLocked()
	return d, nil
}

// readHeader parses and sanity-checks one cache file's header without
// reading the value. ok is false for unparseable headers and for files
// shorter than the header promises.
func readHeader(path string) (dheader, int64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return dheader{}, 0, false
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return dheader{}, 0, false
	}
	var hdr dheader
	if json.Unmarshal(line, &hdr) != nil || hdr.Key == "" || hdr.Len < 0 {
		return dheader{}, 0, false
	}
	st, err := f.Stat()
	if err != nil || st.Size() != int64(len(line))+hdr.Len {
		return dheader{}, 0, false
	}
	return hdr, st.Size(), true
}

// fileFor names the cache file for a key: a hash, because keys embed
// NUL separators and arbitrary format strings that do not belong in
// file names.
func fileFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + cacheExt
}

// valueSum is the checksum stored in (and verified against) the header.
func valueSum(val []byte) string {
	sum := sha256.Sum256(val)
	return hex.EncodeToString(sum[:8])
}

// Get returns the stored value for key. A file that is missing,
// truncated, or fails length/checksum/key verification counts as a miss
// (and is removed): a crash mid-write must never poison the tier.
func (d *DiskCache) Get(key string) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.items[key]
	if !ok {
		d.misses++
		return nil, false
	}
	e := el.Value.(*dentry)
	val, ok := d.readVerifyLocked(e)
	if !ok {
		d.dropLocked(el)
		d.corrupt++
		d.misses++
		return nil, false
	}
	d.ll.MoveToFront(el)
	d.hits++
	return val, true
}

// readVerifyLocked reads one entry's file and verifies header length,
// key, and value checksum. The header is re-read from disk, so its
// length is checked against the indexed file size before anything is
// allocated: a header rewritten since indexing (a negative or huge len)
// is corruption, not an allocation request. Called with d.mu held.
func (d *DiskCache) readVerifyLocked(e *dentry) ([]byte, bool) {
	f, err := os.Open(filepath.Join(d.dir, e.file))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, false
	}
	var hdr dheader
	if json.Unmarshal(line, &hdr) != nil || hdr.Key != e.key ||
		hdr.Len < 0 || int64(len(line))+hdr.Len != e.size {
		return nil, false
	}
	val := make([]byte, hdr.Len)
	if _, err := io.ReadFull(br, val); err != nil {
		return nil, false
	}
	// Any trailing byte means the file is longer than the header
	// promises — treat appended garbage as corruption too.
	if _, err := br.ReadByte(); err == nil {
		return nil, false
	}
	if valueSum(val) != hdr.Sum {
		return nil, false
	}
	return val, true
}

// Put stores val under key: temp file in the cache directory, fsync,
// rename over the final name. Values larger than the budget are
// dropped; eviction restores the budget afterwards. Errors are
// swallowed — the disk tier is an optimization, never a correctness
// dependency — but counted in DiskStats.IOErrs so a failing disk is
// visible in the metrics.
func (d *DiskCache) Put(key string, val []byte) {
	if d == nil {
		return
	}
	hdr, err := json.Marshal(dheader{Key: key, Len: int64(len(val)), Sum: valueSum(val)})
	if err != nil {
		return
	}
	hdr = append(hdr, '\n')
	size := int64(len(hdr)) + int64(len(val))
	if size > d.max {
		return
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		d.ioErrs++
		return
	}
	_, werr := tmp.Write(hdr)
	if werr == nil {
		_, werr = tmp.Write(val)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		d.ioErrs++
		d.removeCounted(tmp.Name())
		return
	}
	file := fileFor(key)
	if err := os.Rename(tmp.Name(), filepath.Join(d.dir, file)); err != nil {
		d.ioErrs++
		d.removeCounted(tmp.Name())
		return
	}
	if el, ok := d.items[key]; ok {
		// Overwrite: the rename already replaced the bytes; refresh the
		// accounting and recency.
		d.cur += size - el.Value.(*dentry).size
		el.Value.(*dentry).size = size
		d.ll.MoveToFront(el)
	} else {
		e := &dentry{key: key, file: file, size: size}
		d.items[key] = d.ll.PushFront(e)
		d.cur += size
	}
	d.puts++
	d.evictLocked()
}

// evictLocked removes least-recently-used entries until the byte budget
// holds. Called with d.mu held.
func (d *DiskCache) evictLocked() {
	for d.cur > d.max {
		back := d.ll.Back()
		if back == nil {
			return
		}
		d.dropLocked(back)
		d.evictions++
	}
}

// dropLocked removes one entry from the index and the filesystem.
// Called with d.mu held.
func (d *DiskCache) dropLocked(el *list.Element) {
	e := el.Value.(*dentry)
	d.ll.Remove(el)
	delete(d.items, e.key)
	d.cur -= e.size
	d.removeCounted(filepath.Join(d.dir, e.file))
}

// Stats returns a snapshot of the disk-tier counters; zeros on nil.
func (d *DiskCache) Stats() DiskStats {
	if d == nil {
		return DiskStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Entries: len(d.items), Bytes: d.cur, MaxBytes: d.max,
		Hits: d.hits, Misses: d.misses, Puts: d.puts,
		Evictions: d.evictions, Corrupt: d.corrupt, IOErrs: d.ioErrs,
	}
}
