package runstore

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary record encoding is the hardware-speed counterpart of the
// JSONL journal: the same record, the same key semantics, the same
// last-wins view, encoded without a JSON marshal or parse anywhere on
// the path. It exists because encoding/json dominates append, open,
// merge, and collector ingest at scale (BENCHMARK.json's
// runstore.{en,de}code_*_ns_per_record layers keep the claim measured).
// The normative specification lives in docs/FORMAT.md; change either in
// lockstep with the other and with the version byte baked into
// BinaryMagic.
//
// A binary journal file is framelog's checksummed framing over this
// payload encoding:
//
//	"PEVBIN1\n" | ( payload-length u32 | crc32c(payload) u32 | payload )*
//
// This file holds only the payload encoder and decoder; the frame
// walk, the torn-tail rule and the append path are framelog's, bound to
// this payload by binaryCodec (codec.go).
const (
	// BinaryMagic is the 8-byte header every binary journal starts with.
	// The digit is the format version: an incompatible change to the
	// frame or payload layout bumps it, so old readers reject new files
	// instead of misparsing them.
	BinaryMagic = "PEVBIN1\n"
	// BinaryExt is the binary journal's file extension. A Merge or
	// Compact destination carrying it is written in the binary format.
	BinaryExt = ".binj"

	// maxBinaryPayload bounds a frame payload so a corrupt length field
	// cannot drive a multi-gigabyte allocation during recovery scans.
	maxBinaryPayload = 1 << 30

	// Map-presence markers: JSON distinguishes an absent/null map from
	// an empty one, and the binary codec must round-trip that distinction
	// for binary -> JSON -> binary conversions to be record-identical.
	binMapNil     = 0
	binMapPresent = 1
)

// appendBinaryRecord appends rec's binary payload encoding to dst and
// returns the extended buffer. Map keys are emitted in sorted order, so
// the encoding is deterministic: two equal records encode to equal
// bytes, which is what the merge byte-identity property rests on.
func appendBinaryRecord(dst []byte, rec Record) []byte {
	dst = appendBinaryString(dst, rec.Experiment)
	dst = appendBinaryString(dst, rec.Hash)
	dst = binary.AppendVarint(dst, int64(rec.Replicate))
	dst = binary.AppendVarint(dst, int64(rec.Row))

	var stack [8]string // key-sorting scratch: an ordinary record's maps fit

	if rec.Assignment == nil {
		dst = append(dst, binMapNil)
	} else {
		dst = append(dst, binMapPresent)
		keys := sortedKeys(stack[:0], rec.Assignment)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = appendBinaryString(dst, k)
			dst = appendBinaryString(dst, rec.Assignment[k])
		}
	}

	if rec.Responses == nil {
		dst = append(dst, binMapNil)
	} else {
		dst = append(dst, binMapPresent)
		keys := sortedKeys(stack[:0], rec.Responses)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		var bits [8]byte
		for _, k := range keys {
			dst = appendBinaryString(dst, k)
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(rec.Responses[k]))
			dst = append(dst, bits[:]...)
		}
	}
	return dst
}

func appendBinaryString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// binDecoder is a bounds-checked cursor over one binary record payload.
type binDecoder struct {
	b   []byte
	err error
}

func (d *binDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("runstore: corrupt binary record payload: truncated %s", what)
	}
}

func (d *binDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binDecoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binDecoder) str(what string) string {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail(what)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *binDecoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(what)
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// decodeBinaryRecord parses one binary record payload. It accepts
// exactly what appendBinaryRecord emits; trailing bytes, truncated
// fields, or impossible counts are errors, never partial records.
func decodeBinaryRecord(b []byte) (Record, error) {
	d := &binDecoder{b: b}
	var rec Record
	rec.Experiment = d.str("experiment")
	rec.Hash = d.str("hash")
	rec.Replicate = int(d.varint("replicate"))
	rec.Row = int(d.varint("row"))

	switch marker := d.byte("assignment marker"); marker {
	case binMapNil:
	case binMapPresent:
		n := d.uvarint("assignment count")
		if d.err == nil && n > uint64(len(d.b)) {
			// Every entry costs at least two bytes; a count beyond the
			// remaining payload is corruption, not a big record.
			return Record{}, fmt.Errorf("runstore: corrupt binary record payload: assignment count %d exceeds payload", n)
		}
		m := make(map[string]string, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			k := d.str("assignment key")
			m[k] = d.str("assignment value")
		}
		rec.Assignment = m
	default:
		if d.err == nil {
			return Record{}, fmt.Errorf("runstore: corrupt binary record payload: bad assignment marker %d", marker)
		}
	}

	switch marker := d.byte("responses marker"); marker {
	case binMapNil:
	case binMapPresent:
		n := d.uvarint("responses count")
		if d.err == nil && n > uint64(len(d.b)) {
			return Record{}, fmt.Errorf("runstore: corrupt binary record payload: responses count %d exceeds payload", n)
		}
		m := make(map[string]float64, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			k := d.str("response name")
			if d.err == nil && len(d.b) < 8 {
				d.fail("response value")
				break
			}
			if d.err == nil {
				m[k] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[:8]))
				d.b = d.b[8:]
			}
		}
		rec.Responses = m
	default:
		if d.err == nil {
			return Record{}, fmt.Errorf("runstore: corrupt binary record payload: bad responses marker %d", marker)
		}
	}

	if d.err != nil {
		return Record{}, d.err
	}
	if len(d.b) != 0 {
		return Record{}, fmt.Errorf("runstore: corrupt binary record payload: %d trailing byte(s)", len(d.b))
	}
	return rec, nil
}
