package runstore

import (
	"io"
	"mime"
)

// The collector's ingest and snapshot streams carry records in exactly
// the journal's line framing — one JSON object per '\n'-terminated line —
// so the wire format and the at-rest format are one format, with one
// framing rule and one torn-tail rule (framelog's). What differs is the
// meaning of an unterminated trailing record: on disk it is a crash tail
// to truncate and resume past; on the wire it is a truncated upload the
// receiver must reject, because "resume" for a network stream is the
// sender retrying, not the receiver guessing.
//
// The binary encoding follows the same design: a binary wire stream is
// a binary record file's frame sequence without the leading magic (the
// Content-Type identifies the framing; a magic would be redundant and
// would break stream concatenation). Negotiation is by media type —
// WireJSONType vs WireBinaryType — with JSON the default and the
// fallback every peer must accept.

// Wire media types. The collector's ingest endpoint dispatches on the
// request Content-Type and its snapshot endpoint honors Accept; any
// other (or absent) type means WireJSONType, the version-1 canonical
// encoding every peer speaks.
const (
	// WireJSONType frames records as '\n'-terminated JSON lines.
	WireJSONType = "application/x-ndjson"
	// WireBinaryType frames records as length-prefixed CRC-32C-checksummed
	// binary frames (docs/FORMAT.md).
	WireBinaryType = "application/x-repro-binary"
)

// NegotiateWire names the framing a Content-Type or Accept header value
// selects, and returns it with that framing's decoder: WireBinaryType
// when the header's media type is that (parameters and case tolerated,
// per RFC 9110), WireJSONType for anything else — an absent or
// unparsable value included. The collector's ingest and snapshot
// handlers and its worker client negotiate through it alone.
func NegotiateWire(header string) (string, func(io.Reader, func(Record) error) (int, error)) {
	if mt, _, err := mime.ParseMediaType(header); err == nil && mt == WireBinaryType {
		return WireBinaryType, DecodeWireBinary
	}
	return WireJSONType, DecodeWire
}

// EncodeWire writes one record to w in the journal/wire line framing:
// the record's canonical JSON marshaling followed by '\n', the exact
// bytes a JSONL Journal's Append would persist. The record is validated
// and canonicalized (NormalizeAppend) first so a wire stream can never
// carry a record a store would refuse to append.
func EncodeWire(w io.Writer, rec Record) error { return jsonCodec.encodeWire(w, rec) }

// DecodeWire reads a wire stream of line-framed records from r, calling
// fn with each decoded, canonicalized record in stream order, and
// returns how many records fn accepted. A record fn rejects stops the
// stream with fn's error. Unlike a journal open, a torn (unterminated,
// undecodable) trailing line is an error — on the wire it means the
// sender was cut off mid-record, and accepting the valid prefix would
// let a partial upload masquerade as a complete one.
func DecodeWire(r io.Reader, fn func(Record) error) (int, error) {
	return jsonCodec.decodeWire(r, fn)
}

// EncodeWireBinary is EncodeWire for the binary framing: one
// length-prefixed checksummed frame, the exact bytes of the record's frame
// in a binary record file (.binj), encoded through the pooled buffer so
// the binary ingest hot path allocates nothing per record.
func EncodeWireBinary(w io.Writer, rec Record) error { return binaryCodec.encodeWire(w, rec) }

// DecodeWireBinary is DecodeWire for the binary framing. As on the JSON
// wire, a torn trailing frame is an error — the sender was cut off
// mid-record — and so is any frame a .binj reader would refuse.
func DecodeWireBinary(r io.Reader, fn func(Record) error) (int, error) {
	return binaryCodec.decodeWire(r, fn)
}
