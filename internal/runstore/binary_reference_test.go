package runstore

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The reference implementation of the binary payload decoder: the
// map-building decodeBinaryRecord as it stood before it became a
// projection of walkBinary, kept word for word as the oracle the walk —
// what it accepts, what it decodes to, what each refusal says — is held
// to (FuzzBinaryDecode). Nothing in the product calls it.

// refBinDecoder is the reference decoder's bounds-checked cursor.
type refBinDecoder struct {
	b   []byte
	err error
}

func (d *refBinDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("runstore: corrupt binary record payload: truncated %s", what)
	}
}

func (d *refBinDecoder) uvarint(what string) uint64 {
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

func (d *refBinDecoder) varint(what string) int64 {
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

func (d *refBinDecoder) str(what string) string {
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

func (d *refBinDecoder) byte(what string) byte {
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

// referenceDecodeBinary parses one binary record payload. It accepts
// exactly what AppendBinary emits; trailing bytes, truncated
// fields, or impossible counts are errors, never partial records.
func referenceDecodeBinary(b []byte) (Record, error) {
	d := &refBinDecoder{b: b}
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
