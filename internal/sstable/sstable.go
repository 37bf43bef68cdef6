// Package sstable implements immutable sorted table files, the on-disk
// format of the SCADS storage engine. A table holds records in strictly
// ascending key order, carved into ~4 KiB blocks with a per-block
// sparse index and a table-level bloom filter for fast negative
// lookups. Reads are block-granular: a point get touches exactly one
// block, and blocks can be served from a shared block cache (see
// BlockCache) so repeated reads skip the disk and the checksums. A
// block in memory is its bytes, every frame checked once when it was
// read, plus one offset per record (see Block): a read decodes only the
// records it visits. A Writer gathers the file in a 64 KiB buffer: one
// write per 64 KiB of table, not one per record.
//
// File layout:
//
//	data:   framed records (see internal/record), ascending keys,
//	        grouped into blocks of ~blockTargetBytes
//	index:  uvarint count, then per block: uvarint keyLen | first key |
//	        uvarint offset
//	bloom:  uvarint bit count | uvarint hash count | bits
//	footer: dataLen u64 | indexLen u64 | bloomLen u64 | count u64 |
//	        magic u64
package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"scads/internal/record"
)

const (
	magic      = 0x5343414453535431 // "SCADSST1"
	footerSize = 5 * 8
	// blockTargetBytes closes a data block once it reaches this size.
	// 4 KiB matches the I/O granularity of the underlying device: a
	// point read costs one aligned-ish pread instead of a 64 KiB chunk.
	blockTargetBytes = 4 << 10
	// writeBufBytes is what a Writer gathers before it writes: one
	// write(2) per 64 KiB of table rather than one per record.
	writeBufBytes = 64 << 10
	bloomBitsPer  = 10 // bits per key ≈ 1% false positives
	bloomHashes   = 7
)

// ErrCorrupt is returned when a table fails validation.
var ErrCorrupt = errors.New("sstable: corrupt table")

// ErrOutOfOrder is returned when Writer.Add receives a non-increasing key.
var ErrOutOfOrder = errors.New("sstable: keys must be strictly ascending")

// BlockCache caches checked data blocks across tables, a table named by
// the number Open gave it. Implementations must be safe for concurrent
// use; a cached Block is shared and immutable. A block Get misses is read whole either way, but only one
// that Admit accepts is Put: a read of a refused block borrows a pooled
// buffer (see borrowBlock). The storage engine provides a sharded LRU
// implementation shared across namespaces, which charges a block its
// Size: a block has no spare capacity, so that is what the cache holds.
type BlockCache interface {
	// Get returns the cached block, if present.
	Get(table uint64, block int) (Block, bool)
	// Admit reports whether the cache would keep the size-byte block
	// Get just missed, and may remember that it was asked.
	Admit(table uint64, block, size int) bool
	// Put stores a block.
	Put(table uint64, block int, b Block)
	// DropTable evicts every block of the numbered table, called when
	// the table file is removed after compaction.
	DropTable(table uint64)
}

// Block is one data block of a table: its bytes, whose every frame's
// CRC and lengths were checked when the block was read, and the offset
// each frame starts at. A read binary-searches the offsets and decodes
// only the records it visits, straight from the checked bytes. A Block
// is immutable, and the records it yields alias its bytes.
type Block struct {
	data []byte
	offs []uint32
}

// NewBlock checks every frame of data and returns the block over it,
// which aliases data. A corrupt frame fails it with record.ErrCorrupt.
func NewBlock(data []byte) (Block, error) {
	return checkFrames(data, make([]uint32, 0, record.CountFrames(data)))
}

// checkFrames checks every frame of data and returns the block over
// it, appending the frame offsets to offs. It is the one check of a
// block read from disk, whether a cache keeps it or it is borrowed.
func checkFrames(data []byte, offs []uint32) (Block, error) {
	if uint64(len(data)) > math.MaxUint32 {
		return Block{}, fmt.Errorf("sstable: %d-byte block: %w", len(data), ErrCorrupt)
	}
	for off := 0; off < len(data); {
		n, err := record.CheckFrame(data[off:])
		if err != nil {
			return Block{}, fmt.Errorf("sstable: %w", err)
		}
		offs = append(offs, uint32(off))
		off += n
	}
	return Block{data: data, offs: offs}, nil
}

// Len returns the number of records in the block.
func (b Block) Len() int { return len(b.offs) }

// Record decodes the block's i-th record.
func (b Block) Record(i int) record.Record { return record.DecodeFrame(b.frame(i)) }

// frame returns the bytes from the block's i-th frame on. Loops decode
// record.DecodeFrame(b.frame(i)) themselves: it inlines, Record does
// not, and a Record returned from a call costs a copy through memory.
func (b Block) frame(i int) []byte { return b.data[b.offs[i]:] }

// Size is the memory the block holds, which is what a cache of it is
// charged: its bytes and four per record.
func (b Block) Size() int { return len(b.data) + 4*len(b.offs) }

func (b Block) key(i int) []byte { return record.FrameKey(b.frame(i)) }

// span returns the block's records with start <= key < end as [pos,
// lim), a nil bound open, and whether the block reaches end, so that no
// later block holds a record of the range.
func (b Block) span(start, end []byte) (pos, lim int, last bool) {
	lim = len(b.offs)
	if start != nil {
		pos = b.search(start)
	}
	if end != nil && lim > 0 && bytes.Compare(b.key(lim-1), end) >= 0 {
		return pos, b.search(end), true
	}
	return pos, lim, false
}

// search returns the index of the block's first record whose key is >=
// key.
func (b Block) search(key []byte) int {
	lo, hi := 0, len(b.offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(b.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Writer builds a table file record by record. The bytes go to
// path+TmpSuffix and Finish renames the finished, synced file to path,
// so a crash at any point leaves no file at path that Open would
// reject; whoever owns the directory deletes leftover TmpSuffix files.
type Writer struct {
	f          *os.File
	path       string
	buf        []byte // encoded bytes not yet written, at most writeBufBytes unless one record is larger
	lastKey    []byte
	index      []indexEntry
	bloomSeeds []bloomSeed // two FNV hashes per key, accumulated incrementally
	blockBytes uint64      // bytes written into the current block
	count      uint64
	offset     uint64 // bytes appended so far: the next record's file offset
	done       bool
}

// TmpSuffix is appended to a table's path while it is being written.
const TmpSuffix = ".tmp"

type indexEntry struct {
	key    []byte
	offset uint64
}

// bloomSeed holds the double-hash pair for one key, so bloom
// construction never needs the key bytes again: 16 bytes per key
// instead of retaining every key in memory until Finish.
type bloomSeed struct {
	h1, h2 uint64
}

// NewWriter starts a table that Finish will publish at path (replacing
// any existing file).
func NewWriter(path string) (*Writer, error) {
	f, err := os.OpenFile(path+TmpSuffix, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sstable: create: %w", err)
	}
	return &Writer{f: f, path: path, buf: make([]byte, 0, writeBufBytes)}, nil
}

// Add appends rec. Keys must arrive in strictly ascending order. Add
// buffers: a write error may surface at a later Add or at Finish, and
// either way the table is lost, so the caller Aborts.
func (w *Writer) Add(rec record.Record) error {
	if w.done {
		return errors.New("sstable: writer already finished")
	}
	if w.lastKey != nil && bytes.Compare(rec.Key, w.lastKey) <= 0 {
		return fmt.Errorf("%w: %q after %q", ErrOutOfOrder, rec.Key, w.lastKey)
	}
	if w.count == 0 || w.blockBytes >= blockTargetBytes {
		// Start a new block at this record.
		w.index = append(w.index, indexEntry{key: append([]byte(nil), rec.Key...), offset: w.offset})
		w.blockBytes = 0
	}
	h1, h2 := bloomHash(rec.Key)
	w.bloomSeeds = append(w.bloomSeeds, bloomSeed{h1, h2})
	size := rec.EncodedSize()
	if len(w.buf) > 0 && len(w.buf)+size > writeBufBytes {
		if _, err := w.f.Write(w.buf); err != nil {
			return fmt.Errorf("sstable: write: %w", err)
		}
		w.buf = w.buf[:0]
	}
	w.buf = rec.AppendBinary(w.buf)
	w.offset += uint64(size)
	w.blockBytes += uint64(size)
	w.lastKey = append(w.lastKey[:0], rec.Key...)
	w.count++
	return nil
}

// Finish writes the buffered records, the index, bloom filter and
// footer, syncs and closes the file, and renames it into place. On
// failure nothing is left behind.
func (w *Writer) Finish() error {
	if w.done {
		return errors.New("sstable: writer already finished")
	}
	w.done = true

	out := w.buf
	dataEnd := len(out)
	out = binary.AppendUvarint(out, uint64(len(w.index)))
	for _, e := range w.index {
		out = binary.AppendUvarint(out, uint64(len(e.key)))
		out = append(out, e.key...)
		out = binary.AppendUvarint(out, e.offset)
	}
	idxLen := len(out) - dataEnd
	out = buildBloom(w.bloomSeeds).appendTo(out)
	blLen := len(out) - dataEnd - idxLen
	out = binary.BigEndian.AppendUint64(out, w.offset)
	out = binary.BigEndian.AppendUint64(out, uint64(idxLen))
	out = binary.BigEndian.AppendUint64(out, uint64(blLen))
	out = binary.BigEndian.AppendUint64(out, w.count)
	out = binary.BigEndian.AppendUint64(out, magic)

	_, err := w.f.Write(out)
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(w.f.Name(), w.path)
	}
	if err != nil {
		os.Remove(w.f.Name())
		return fmt.Errorf("sstable: finish: %w", err)
	}
	return nil
}

// Abort closes and removes a partially written table.
func (w *Writer) Abort() error {
	w.done = true
	w.f.Close()
	return os.Remove(w.f.Name())
}

// Reader provides random and sequential access to a finished table.
//
// Readers are reference counted: the owner's reference is released by
// Close or Remove, and concurrent scans that outlive the owner's table
// set pin the file with Retain/Release, so a compaction can unlink a
// table while a scan started earlier still streams its blocks.
type Reader struct {
	f       *os.File
	path    string
	dataLen uint64
	size    int64 // whole file size, for tier selection
	count   uint64
	index   []indexEntry // one entry per block: first key + offset
	bloom   *bloomFilter

	cache BlockCache // nil = uncached; set once before concurrent use
	id    uint64     // the table's number in cache, from tableIDs

	refs   atomic.Int32
	doomed atomic.Bool // unlink the file when the last reference drops
}

// tableIDs numbers the tables Open opens: a number is never reused in a
// process, so a block cache keyed by it cannot serve a block of a table
// unlinked before another was written under its path.
var tableIDs atomic.Uint64

// Open validates and opens the table at path, loading its index and
// bloom filter into memory.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sstable: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerSize {
		f.Close()
		return nil, fmt.Errorf("sstable: file too small: %w", ErrCorrupt)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if binary.BigEndian.Uint64(footer[32:40]) != magic {
		f.Close()
		return nil, fmt.Errorf("sstable: bad magic: %w", ErrCorrupt)
	}
	r := &Reader{
		f:       f,
		path:    path,
		id:      tableIDs.Add(1),
		dataLen: binary.BigEndian.Uint64(footer[0:8]),
		size:    st.Size(),
		count:   binary.BigEndian.Uint64(footer[24:32]),
	}
	r.refs.Store(1)
	idxLen := binary.BigEndian.Uint64(footer[8:16])
	blLen := binary.BigEndian.Uint64(footer[16:24])
	if r.dataLen+idxLen+blLen+footerSize != uint64(st.Size()) {
		f.Close()
		return nil, fmt.Errorf("sstable: section lengths disagree with file size: %w", ErrCorrupt)
	}

	idxBuf := make([]byte, idxLen)
	if _, err := f.ReadAt(idxBuf, int64(r.dataLen)); err != nil {
		f.Close()
		return nil, err
	}
	if err := r.parseIndex(idxBuf); err != nil {
		f.Close()
		return nil, err
	}

	blBuf := make([]byte, blLen)
	if _, err := f.ReadAt(blBuf, int64(r.dataLen+idxLen)); err != nil {
		f.Close()
		return nil, err
	}
	bloom, err := unmarshalBloom(blBuf)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.bloom = bloom

	if err := r.checkEdgeBlocks(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// SetBlockCache attaches a shared block cache. Must be called
// before the reader is used concurrently (the storage engine does so
// immediately after Open).
func (r *Reader) SetBlockCache(c BlockCache) { r.cache = c }

func (r *Reader) parseIndex(buf []byte) error {
	n, m := binary.Uvarint(buf)
	if m <= 0 {
		return ErrCorrupt
	}
	buf = buf[m:]
	r.index = make([]indexEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, m := binary.Uvarint(buf)
		if m <= 0 || uint64(len(buf)-m) < klen {
			return ErrCorrupt
		}
		buf = buf[m:]
		key := append([]byte(nil), buf[:klen]...)
		buf = buf[klen:]
		off, m := binary.Uvarint(buf)
		if m <= 0 {
			return ErrCorrupt
		}
		buf = buf[m:]
		r.index = append(r.index, indexEntry{key: key, offset: off})
	}
	return nil
}

// checkEdgeBlocks decodes the first and last data blocks, so a table
// torn at either end fails at Open rather than at a later read.
func (r *Reader) checkEdgeBlocks() error {
	if r.count == 0 {
		return nil
	}
	if err := r.checkNotEmpty(0); err != nil || r.NumBlocks() == 1 {
		return err
	}
	return r.checkNotEmpty(r.NumBlocks() - 1)
}

// checkNotEmpty reads and checks block i, which must hold a record.
func (r *Reader) checkNotEmpty(i int) error {
	b, buf, err := r.borrowBlock(i)
	if err != nil {
		return err
	}
	blockBufs.Put(buf)
	if b.Len() == 0 {
		return ErrCorrupt
	}
	return nil
}

// Count returns the number of records in the table.
func (r *Reader) Count() uint64 { return r.count }

// SizeBytes returns the table's file size, used by the storage
// engine's tier-selection policy.
func (r *Reader) SizeBytes() int64 { return r.size }

// NumBlocks returns the number of data blocks in the table.
func (r *Reader) NumBlocks() int { return len(r.index) }

// Retain pins the reader: the underlying file stays open (and, after
// Remove, on disk) until a matching Release.
func (r *Reader) Retain() { r.refs.Add(1) }

// Release drops one reference, closing — and, if Remove was called,
// unlinking — the file when the last one goes.
func (r *Reader) Release() error {
	if r.refs.Add(-1) != 0 {
		return nil
	}
	err := r.f.Close()
	if r.doomed.Load() {
		if c := r.cache; c != nil {
			c.DropTable(r.id)
		}
		if rerr := os.Remove(r.path); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// Close releases the owner's reference; the file closes once every
// concurrent Retain has been Released.
func (r *Reader) Close() error { return r.Release() }

// Remove releases the owner's reference and marks the table file for
// deletion; the unlink happens when the last reference drops, so
// in-flight scans that pinned the reader finish against intact data.
func (r *Reader) Remove() error {
	r.doomed.Store(true)
	return r.Release()
}

// blockExtent returns the byte range [off, off+length) of block i.
func (r *Reader) blockExtent(i int) (off, length uint64) {
	off = r.index[i].offset
	end := r.dataLen
	if i+1 < len(r.index) {
		end = r.index[i+1].offset
	}
	return off, end - off
}

// loadBlock returns block i, checked. A cached read consults the
// attached block cache first and fills it with a block it admits. A
// block no cache keeps is borrowed: buf is then non-nil, and the block
// is valid until buf goes back to blockBufs. An uncached read
// (compaction) never touches the cache, so one-shot sequential sweeps
// cannot wash it of hot read blocks.
func (r *Reader) loadBlock(i int, cached bool) (b Block, buf *blockBuf, err error) {
	if cached {
		if b, ok, err := r.cachedBlock(i); ok || err != nil {
			return b, nil, err
		}
	}
	return r.borrowBlock(i)
}

// cachedBlock returns block i from the attached cache, read in and
// stored when the cache misses but admits it. ok is false when there
// is no cache or it refused the block, which it then does not hold.
func (r *Reader) cachedBlock(i int) (b Block, ok bool, err error) {
	c := r.cache
	if c == nil {
		return Block{}, false, nil
	}
	if b, ok := c.Get(r.id, i); ok {
		return b, true, nil
	}
	_, length := r.blockExtent(i)
	if !c.Admit(r.id, i, int(length)) {
		return Block{}, false, nil
	}
	if b, err = r.decodeBlock(i); err != nil {
		return Block{}, false, err
	}
	c.Put(r.id, i, b)
	return b, true, nil
}

// decodeBlock reads block i and checks its frames: the only
// allocations are its bytes and its offsets.
func (r *Reader) decodeBlock(i int) (Block, error) {
	off, length := r.blockExtent(i)
	buf := make([]byte, length)
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return Block{}, fmt.Errorf("sstable: read block: %w", err)
	}
	return NewBlock(buf)
}

// blockBuf is the memory of a borrowed block: bytes and frame offsets
// that outlive one read only in the pool.
type blockBuf struct {
	data []byte
	offs []uint32
}

// blockBufs pools the buffers borrowed blocks are read into.
var blockBufs = sync.Pool{New: func() any { return new(blockBuf) }}

// borrowBlock reads block i into a pooled buffer and checks every
// frame, exactly as a cached block is checked, so a corrupt block fails
// the read whether it is cached or not. The block aliases buf, which
// the caller puts back into blockBufs once no record it handed out can
// alias the block.
func (r *Reader) borrowBlock(i int) (Block, *blockBuf, error) {
	off, length := r.blockExtent(i)
	if length > math.MaxUint32 {
		return Block{}, nil, fmt.Errorf("sstable: %d-byte block: %w", length, ErrCorrupt)
	}
	buf := blockBufs.Get().(*blockBuf)
	if uint64(cap(buf.data)) < length {
		buf.data = make([]byte, length)
	}
	data := buf.data[:length]
	if _, err := r.f.ReadAt(data, int64(off)); err != nil {
		blockBufs.Put(buf)
		return Block{}, nil, fmt.Errorf("sstable: read block: %w", err)
	}
	b, err := checkFrames(data, buf.offs[:0])
	if err != nil {
		blockBufs.Put(buf)
		return Block{}, nil, err
	}
	buf.offs = b.offs
	return b, buf, nil
}

// blockFor returns the index of the block that may contain key: the
// last block whose first key is <= key (block 0 if key precedes every
// block's first key).
func (r *Reader) blockFor(key []byte) int {
	lo, hi := 0, len(r.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(r.index[mid].key, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// Get returns the record stored under key. One bloom probe, one block
// read (cached or a single ~4 KiB pread), one binary search, one
// record decoded. The record aliases a cached block; read from a block
// no cache keeps, it is a copy that owns its bytes.
func (r *Reader) Get(key []byte) (record.Record, bool, error) {
	if r.count == 0 || !r.bloom.mayContain(key) {
		return record.Record{}, false, nil
	}
	i := r.blockFor(key)
	b, ok, err := r.cachedBlock(i)
	if err != nil {
		return record.Record{}, false, err
	}
	if !ok {
		return r.getOnce(i, key)
	}
	if j := b.search(key); j < b.Len() && bytes.Equal(b.key(j), key) {
		return b.Record(j), true, nil
	}
	return record.Record{}, false, nil
}

// getOnce is Get over block i when no cache will keep it: the block is
// borrowed, and the record found is copied out, so the buffer never
// leaves the call.
func (r *Reader) getOnce(i int, key []byte) (record.Record, bool, error) {
	b, buf, err := r.borrowBlock(i)
	if err != nil {
		return record.Record{}, false, err
	}
	defer blockBufs.Put(buf)
	j := b.search(key)
	if j >= b.Len() || !bytes.Equal(b.key(j), key) {
		return record.Record{}, false, nil
	}
	// One allocation holds the key and the value.
	rec := record.DecodeFrame(b.frame(j))
	k := len(rec.Key)
	owned := append(append(make([]byte, 0, k+len(rec.Value)), rec.Key...), rec.Value...)
	rec.Key = owned[:k:k]
	if rec.Value != nil {
		rec.Value = owned[k:]
	}
	return rec, true, nil
}

// Scan visits records with start <= key < end in ascending order until
// fn returns false. A nil end means unbounded. The record passed to fn
// is valid only until fn returns: it may alias a borrowed block.
func (r *Reader) Scan(start, end []byte, fn func(record.Record) bool) error {
	i := 0
	if start != nil {
		i = r.blockFor(start)
	}
	for ; i < len(r.index); i++ {
		b, buf, err := r.loadBlock(i, true)
		if err != nil {
			return err
		}
		pos, lim, last := b.span(start, end)
		start = nil // later blocks lie past the lower bound
		for j := pos; j < lim; j++ {
			if !fn(record.DecodeFrame(b.frame(j))) {
				last = true
				break
			}
		}
		if buf != nil {
			blockBufs.Put(buf)
		}
		if last {
			return nil
		}
	}
	return nil
}

// --- bloom filter ---

type bloomFilter struct {
	bits   []byte
	nBits  uint64
	hashes uint64
}

func buildBloom(seeds []bloomSeed) *bloomFilter {
	nBits := uint64(len(seeds)*bloomBitsPer + 64)
	bf := &bloomFilter{
		bits:   make([]byte, (nBits+7)/8),
		nBits:  nBits,
		hashes: bloomHashes,
	}
	for _, s := range seeds {
		for i := uint64(0); i < bf.hashes; i++ {
			bit := (s.h1 + i*s.h2) % bf.nBits
			bf.bits[bit/8] |= 1 << (bit % 8)
		}
	}
	return bf
}

func (bf *bloomFilter) mayContain(key []byte) bool {
	h1, h2 := bloomHash(key)
	for i := uint64(0); i < bf.hashes; i++ {
		bit := (h1 + i*h2) % bf.nBits
		if bf.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

func bloomHash(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	h1 := h.Sum64()
	h.Write([]byte{0x9e})
	h2 := h.Sum64() | 1
	return h1, h2
}

func (bf *bloomFilter) appendTo(out []byte) []byte {
	out = binary.AppendUvarint(out, bf.nBits)
	out = binary.AppendUvarint(out, bf.hashes)
	return append(out, bf.bits...)
}

func unmarshalBloom(b []byte) (*bloomFilter, error) {
	nBits, m := binary.Uvarint(b)
	if m <= 0 {
		return nil, ErrCorrupt
	}
	b = b[m:]
	hashes, m := binary.Uvarint(b)
	if m <= 0 {
		return nil, ErrCorrupt
	}
	b = b[m:]
	if uint64(len(b)) != (nBits+7)/8 || hashes == 0 {
		return nil, ErrCorrupt
	}
	return &bloomFilter{bits: append([]byte(nil), b...), nBits: nBits, hashes: hashes}, nil
}
