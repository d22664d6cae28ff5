package runstore

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

func wireRecord(rep int) Record {
	return Record{
		Experiment: "wire exp",
		Row:        1,
		Replicate:  rep,
		Assignment: map[string]string{"cache": "1KB"},
		Responses:  map[string]float64{"MIPS": 15.5 + float64(rep)},
	}
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []Record{wireRecord(0), wireRecord(1), wireRecord(2)}
	for _, rec := range want {
		if err := EncodeWire(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	var got []Record
	n, err := DecodeWire(&buf, func(rec Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("decoded %d records, want %d", n, len(want))
	}
	for i := range want {
		norm, err := NormalizeAppend(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], norm) {
			t.Errorf("record %d: %+v != %+v", i, got[i], norm)
		}
	}
}

// The wire framing must be byte-identical to the journal's at-rest
// framing: what EncodeWire emits is exactly what Append would persist.
func TestWireFramingMatchesJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, "wire exp")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for rep := 0; rep < 3; rep++ {
		if err := j.Append(wireRecord(rep)); err != nil {
			t.Fatal(err)
		}
		if err := EncodeWire(&buf, wireRecord(rep)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	disk, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, buf.Bytes()) {
		t.Errorf("wire framing diverges from journal framing:\nwire: %q\ndisk: %q", buf.Bytes(), disk)
	}
}

func TestDecodeWireTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeWire(&buf, wireRecord(0)); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"experiment":"wire exp","ro`) // cut off mid-record
	n, err := DecodeWire(&buf, func(Record) error { return nil })
	if err == nil {
		t.Fatal("truncated wire stream decoded without error")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error %q does not name the truncation", err)
	}
	if n != 1 {
		t.Errorf("decoded %d records before the truncation, want 1", n)
	}
}

func TestDecodeWireConsumerError(t *testing.T) {
	var buf bytes.Buffer
	for rep := 0; rep < 3; rep++ {
		if err := EncodeWire(&buf, wireRecord(rep)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("consumer refused")
	n, err := DecodeWire(&buf, func(rec Record) error {
		if rec.Replicate == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the consumer's error", err)
	}
	if n != 1 {
		t.Errorf("accepted %d records before the refusal, want 1", n)
	}
}

func TestEncodeWireRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeWire(&buf, Record{Replicate: 0})
	if err == nil {
		t.Fatal("record without an experiment name encoded without error")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected record still wrote %d bytes", buf.Len())
	}
}

// TestNegotiateWire pins the media-type rule both collector peers share:
// only a binary media type, parameters and case aside, selects binary
// frames; every other header value, none included, selects NDJSON.
func TestNegotiateWire(t *testing.T) {
	for header, want := range map[string]string{
		"":                                      WireJSONType,
		WireJSONType:                            WireJSONType,
		"text/plain":                            WireJSONType,
		"not a media type;;":                    WireJSONType,
		WireBinaryType:                          WireBinaryType,
		"Application/X-Repro-Binary; version=1": WireBinaryType,
	} {
		got, decode := NegotiateWire(header)
		if got != want {
			t.Errorf("NegotiateWire(%q) = %q, want %q", header, got, want)
		}
		var buf bytes.Buffer
		encode := EncodeWire
		if want == WireBinaryType {
			encode = EncodeWireBinary
		}
		if err := encode(&buf, wireRecord(0)); err != nil {
			t.Fatal(err)
		}
		if n, err := decode(&buf, func(Record) error { return nil }); n != 1 || err != nil {
			t.Errorf("NegotiateWire(%q)'s decoder read %d record(s), %v", header, n, err)
		}
	}
}
