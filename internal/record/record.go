// Package record defines the versioned key-value record that flows
// through every layer of the SCADS storage stack (memtable, WAL,
// SSTable, replication). A record carries a logical version used for
// last-write-wins resolution and staleness accounting, and a tombstone
// flag so deletions propagate through lazy replication like any other
// write (paper §3.3).
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Record is a single versioned key-value entry.
type Record struct {
	// Key is the order-preserving encoded key (see internal/keycodec).
	Key []byte
	// Value is the opaque payload; empty for tombstones.
	Value []byte
	// Version is a logical timestamp. Higher versions win under
	// last-write-wins. SCADS uses hybrid versions: wall-clock
	// nanoseconds from the node's clock, tie-broken by node ID bits.
	Version uint64
	// Tombstone marks a deletion.
	Tombstone bool
}

// Clone returns a deep copy of r.
func (r Record) Clone() Record {
	c := Record{Version: r.Version, Tombstone: r.Tombstone}
	if r.Key != nil {
		c.Key = append([]byte(nil), r.Key...)
	}
	if r.Value != nil {
		c.Value = append([]byte(nil), r.Value...)
	}
	return c
}

// Supersedes reports whether r should replace other under
// last-write-wins (strictly newer version wins; ties favour the
// tombstone so deletes are sticky, then larger value for determinism).
func (r Record) Supersedes(other Record) bool {
	if r.Version != other.Version {
		return r.Version > other.Version
	}
	if r.Tombstone != other.Tombstone {
		return r.Tombstone
	}
	return string(r.Value) > string(other.Value)
}

// ErrCorrupt is returned when a serialized record fails validation.
var ErrCorrupt = errors.New("record: corrupt encoding")

const (
	flagTombstone byte = 1 << 0
)

// AppendBinary serializes r to dst in the framed format used by the
// WAL and SSTable blocks:
//
//	crc32(payload) uint32 | payloadLen uint32 | payload
//	payload = flags byte | version uint64 | keyLen uvarint | key |
//	          valLen uvarint | value
//
// The frame is built in place: the header is reserved, the payload
// appended after it, and the header filled in last, so a dst with room
// for EncodedSize more bytes costs no allocation.
func (r Record) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, r.EncodedSize())
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	var flags byte
	if r.Tombstone {
		flags |= flagTombstone
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, r.Version)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)

	payload := dst[head+8:]
	binary.BigEndian.PutUint32(dst[head:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(dst[head+4:], uint32(len(payload)))
	return dst
}

// DecodeBinary decodes one framed record from b, returning the record
// and the remaining bytes. Key and Value are copies, safe to retain
// after b is reused.
func DecodeBinary(b []byte) (Record, []byte, error) {
	r, rest, err := DecodeBinaryAlias(b)
	if err != nil {
		return Record{}, nil, err
	}
	if r.Key != nil {
		r.Key = append([]byte(nil), r.Key...)
	}
	if r.Value != nil {
		r.Value = append([]byte(nil), r.Value...)
	}
	return r, rest, nil
}

// DecodeBinaryAlias decodes one framed record from b without copying:
// Key and Value alias b, so callers that retain the record beyond the
// buffer's lifetime must Clone it.
func DecodeBinaryAlias(b []byte) (Record, []byte, error) {
	n, err := CheckFrame(b)
	if err != nil {
		return Record{}, nil, err
	}
	return DecodeFrame(b), b[n:], nil
}

// CheckFrame verifies the framed record at the head of b — its CRC and
// every length in it — and returns the frame's size. A frame it accepts
// decodes with DecodeFrame and FrameKey, which check nothing again: an
// SSTable block is checked once when it is read, and a read decodes
// only the records it visits.
func CheckFrame(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("record: short frame header (%d bytes): %w", len(b), ErrCorrupt)
	}
	wantCRC := binary.BigEndian.Uint32(b[:4])
	n := binary.BigEndian.Uint32(b[4:8])
	if uint32(len(b)-8) < n {
		return 0, fmt.Errorf("record: truncated payload (want %d have %d): %w", n, len(b)-8, ErrCorrupt)
	}
	payload := b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return 0, fmt.Errorf("record: checksum mismatch: %w", ErrCorrupt)
	}
	if len(payload) < 9 {
		return 0, ErrCorrupt
	}
	p := payload[9:]
	klen, m := binary.Uvarint(p)
	if m <= 0 || uint64(len(p)-m) < klen {
		return 0, ErrCorrupt
	}
	p = p[uint64(m)+klen:]
	vlen, m := binary.Uvarint(p)
	if m <= 0 || uint64(len(p)-m) != vlen {
		return 0, ErrCorrupt
	}
	return 8 + int(n), nil
}

// frameKeyAt is the offset of a frame's key length: CRC, payload
// length, flags and version come first.
const frameKeyAt = 8 + 1 + 8

// DecodeFrame decodes the framed record at the head of b, which
// CheckFrame has accepted, without checking it again. Key and Value
// alias b.
func DecodeFrame(b []byte) (r Record) {
	r.Key, r.Value, r.Version, r.Tombstone = frameFields(b)
	return r
}

// frameFields is DecodeFrame's body. It returns the fields one by one,
// in registers, and DecodeFrame inlines (written as it is, it costs the
// inliner less than a composite literal would), so a caller's Record is
// built in place, not copied out of a stack slot. Keys and values
// shorter than 128 bytes, the common case, have one-byte lengths, read
// without binary.Uvarint's loop.
func frameFields(b []byte) (key, value []byte, version uint64, tombstone bool) {
	_ = b[frameKeyAt]
	klen, p := int(b[frameKeyAt]), frameKeyAt+1
	if klen >= 0x80 {
		klen, p = lengthAt(b, frameKeyAt)
	}
	if klen > 0 {
		key = b[p : p+klen : p+klen]
	}
	p += klen
	vlen := int(b[p])
	if p++; vlen >= 0x80 {
		vlen, p = lengthAt(b, p-1)
	}
	if vlen > 0 {
		value = b[p : p+vlen : p+vlen]
	}
	return key, value, binary.BigEndian.Uint64(b[9:frameKeyAt]), b[8]&flagTombstone != 0
}

// FrameKey returns the key of the framed record at the head of b, which
// CheckFrame has accepted, aliasing b.
func FrameKey(b []byte) []byte {
	klen, p := int(b[frameKeyAt]), frameKeyAt+1
	if klen >= 0x80 {
		klen, p = lengthAt(b, frameKeyAt)
	}
	return b[p : p+klen : p+klen]
}

// lengthAt decodes the checked uvarint length at b[i:] and returns it
// with the offset just past it.
func lengthAt(b []byte, i int) (n, next int) {
	u, m := binary.Uvarint(b[i:])
	return int(u), i + m
}

// CountFrames counts the framed records in b from their length fields
// alone, without checking them, so a decoder can size its output
// exactly before it decodes. The count stops at b's end: a corrupt
// length can only miscount, never read past b, and CheckFrame still
// reports the corruption.
func CountFrames(b []byte) int {
	n := 0
	for off := uint64(0); off+8 <= uint64(len(b)); n++ {
		off += 8 + uint64(binary.BigEndian.Uint32(b[off+4:]))
	}
	return n
}

// MarshalTo appends the unframed wire encoding of r to dst and
// returns the extended slice:
//
//	flags byte | version uvarint | keyLen uvarint | key |
//	valLen uvarint | value
//
// It is the allocation-free codec the RPC layer uses for the records a
// request or response carries: no CRC (TCP already checksums the
// stream and the frame length bounds the read) and no per-record
// allocation. The WAL and SSTables keep the CRC-framed AppendBinary,
// where torn writes and bit rot are real.
func (r Record) MarshalTo(dst []byte) []byte {
	var flags byte
	if r.Tombstone {
		flags |= flagTombstone
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, r.Version)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	return append(dst, r.Value...)
}

// Unmarshal decodes one MarshalTo-encoded record from b, returning the
// remaining bytes. Key and Value alias b — callers that retain the
// record beyond the buffer's lifetime must Clone it. Every length is
// validated against the bytes present before use, so truncated or
// corrupt input returns ErrCorrupt and never panics or over-allocates.
func (r *Record) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("record: empty wire record: %w", ErrCorrupt)
	}
	r.Tombstone = b[0]&flagTombstone != 0
	b = b[1:]
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("record: bad version varint: %w", ErrCorrupt)
	}
	r.Version = v
	b = b[n:]
	klen, n := binary.Uvarint(b)
	if n <= 0 || klen > uint64(len(b)-n) {
		return nil, fmt.Errorf("record: bad key length: %w", ErrCorrupt)
	}
	b = b[n:]
	if klen > 0 {
		r.Key = b[:klen:klen]
	} else {
		r.Key = nil
	}
	b = b[klen:]
	vlen, n := binary.Uvarint(b)
	if n <= 0 || vlen > uint64(len(b)-n) {
		return nil, fmt.Errorf("record: bad value length: %w", ErrCorrupt)
	}
	b = b[n:]
	if vlen > 0 {
		r.Value = b[:vlen:vlen]
	} else {
		r.Value = nil
	}
	return b[vlen:], nil
}

// MarshaledSize returns the number of bytes MarshalTo will emit for r.
func (r Record) MarshaledSize() int {
	return 1 + uvarintLen(r.Version) +
		uvarintLen(uint64(len(r.Key))) + len(r.Key) +
		uvarintLen(uint64(len(r.Value))) + len(r.Value)
}

// EncodedSize returns the number of bytes AppendBinary will emit for r.
func (r Record) EncodedSize() int {
	payload := 1 + 8 +
		uvarintLen(uint64(len(r.Key))) + len(r.Key) +
		uvarintLen(uint64(len(r.Value))) + len(r.Value)
	return 8 + payload
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// MemSize estimates the in-memory footprint of r, used for memtable
// flush thresholds.
func (r Record) MemSize() int {
	return len(r.Key) + len(r.Value) + 32
}
