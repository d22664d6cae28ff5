package runstore

import (
	"bytes"
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
// A binary record file (.binj) is framelog's checksummed framing over
// this payload encoding:
//
//	"PEVBIN1\n" | ( payload-length u32 | crc32c(payload) u32 | payload )*
//
// Only Merge and Compact write one. This file holds only the payload
// encoder and decoder; the frame walk and the torn-tail rule are
// framelog's, bound to this payload by binaryCodec (codec.go).
const (
	// BinaryMagic is the 8-byte header of every binary record file.
	// The digit is the format version: an incompatible change to the
	// frame or payload layout bumps it, so old readers reject new files
	// instead of misparsing them.
	BinaryMagic = "PEVBIN1\n"
	// BinaryExt is the binary record file's extension. A Merge or Compact
	// destination carrying it is written in the binary format.
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

// AppendBinary appends rec's binary payload encoding to dst and returns
// the extended buffer: the payload of a .binj or binary wire frame and of
// an archive's record block. Map keys are emitted in sorted order, so the
// encoding is deterministic: two equal records encode to equal
// bytes, which is what the merge byte-identity property rests on.
func AppendBinary(dst []byte, rec Record) []byte {
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
	// overlong: some varint so far was not written in the fewest bytes, as
	// binary.Append(U)varint writes it.
	overlong bool
}

// fail records that the field named what, or the named part of it, is cut
// short. The name is put together only here: on the way to a field that
// is whole it costs nothing.
func (d *binDecoder) fail(what, part string) {
	if d.err == nil {
		d.err = fmt.Errorf("runstore: corrupt binary record payload: truncated %s%s", what, part)
	}
}

// took consumes the n bytes a varint read reported, or fails.
func (d *binDecoder) took(n int, what, part string) bool {
	if n <= 0 {
		d.fail(what, part)
		return false
	}
	d.overlong = d.overlong || (n > 1 && d.b[n-1] == 0)
	d.b = d.b[n:]
	return true
}

func (d *binDecoder) uvarint(what, part string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if !d.took(n, what, part) {
		return 0
	}
	return v
}

func (d *binDecoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if !d.took(n, what, "") {
		return 0
	}
	return v
}

// str returns a length-prefixed string, still in the payload.
func (d *binDecoder) str(what string) []byte {
	n := d.uvarint(what, " length")
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail(what, "")
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

func (d *binDecoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(what, "")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// count reads a present map's member count. Every member costs at least
// two bytes; a count beyond the remaining payload is corruption, not a
// big record.
func (d *binDecoder) count(what string) uint64 {
	n := d.uvarint(what, " count")
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = fmt.Errorf("runstore: corrupt binary record payload: %s count %d exceeds payload", what, n)
	}
	return n
}

// walkBinary is the binary codec's one walk of the record grammar: it
// fills f from the payload b, building no map and no string, and accepts
// exactly what AppendBinary can have written — trailing bytes,
// truncated fields and impossible counts are errors, never partial
// records. Members are left in payload order. canonical says b is byte
// for byte what AppendBinary writes for the record f then holds:
// varints in the fewest bytes, keys strictly ascending in both maps (so f
// is in the shape Fields promises), no NaN (whose bits a float64 need not
// keep) — and, because nothing is appended without one, a hash.
func walkBinary(b []byte, f *Fields) (canonical bool, err error) {
	d := &binDecoder{b: b}
	f.Experiment = d.str("experiment")
	f.Hash = d.str("hash")
	replicate, row := d.varint("replicate"), d.varint("row")
	f.Replicate, f.Row = int(replicate), int(row)
	canonical = len(f.Hash) > 0 && int64(f.Replicate) == replicate && int64(f.Row) == row
	// A key ascends if it sorts after the one before it (nil before the
	// first: a string that was read never is).
	ascends := func(prev, k []byte) bool { return prev == nil || bytes.Compare(prev, k) < 0 }

	f.assignment.start(false)
	f.responses.start(false)
	switch marker := d.byte("assignment marker"); marker {
	case binMapNil:
	case binMapPresent:
		n := d.count("assignment")
		f.assignment.start(true)
		for i, prev := uint64(0), []byte(nil); i < n && d.err == nil; i++ {
			k := d.str("assignment key")
			canonical = canonical && ascends(prev, k)
			f.assignment.add(Pair{k, d.str("assignment value")})
			prev = k
		}
	default:
		if d.err == nil {
			return false, fmt.Errorf("runstore: corrupt binary record payload: bad assignment marker %d", marker)
		}
	}

	switch marker := d.byte("responses marker"); marker {
	case binMapNil:
	case binMapPresent:
		n := d.count("responses")
		f.responses.start(true)
		for i, prev := uint64(0), []byte(nil); i < n && d.err == nil; i++ {
			k := d.str("response name")
			if d.err != nil {
				break
			}
			if len(d.b) < 8 {
				d.fail("response value", "")
				break
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[:8]))
			d.b = d.b[8:]
			canonical = canonical && ascends(prev, k) && !math.IsNaN(v)
			f.responses.add(Response{k, v})
			prev = k
		}
	default:
		if d.err == nil {
			return false, fmt.Errorf("runstore: corrupt binary record payload: bad responses marker %d", marker)
		}
	}

	if d.err != nil {
		return false, d.err
	}
	if len(d.b) != 0 {
		return false, fmt.Errorf("runstore: corrupt binary record payload: %d trailing byte(s)", len(d.b))
	}
	return canonical && !d.overlong, nil
}

// DecodeBinaryFields is the field pass over one binary record payload —
// the payload of a binary journal frame and of an archive's binary record
// block, and the mirror of DecodeJSONFields: it fills f with the record
// decodeBinaryRecord returns for payload, a missing hash derived,
// building the record itself only for a payload walkBinary does not find
// canonical. f points into payload afterwards.
func DecodeBinaryFields(payload []byte, f *Fields) error { return binaryCodec.fields(payload, f) }

// decodeBinaryRecord parses one binary record payload exactly as stored:
// walkBinary's record, a repeated key keeping its last value.
func decodeBinaryRecord(b []byte) (Record, error) {
	var f Fields // on this stack
	if _, err := walkBinary(b, &f); err != nil {
		return Record{}, err
	}
	return f.Record(), nil
}
