package runstore

import (
	"fmt"
	"io"
	"iter"
	"os"
	"strings"
)

// Format describes an alternative on-disk record-store format (the
// block-indexed archive in internal/runstore/archivestore is the first)
// so the journal-file tooling — Merge, LoadRecords, Inspect — transparently
// reads and writes it. A backend registers its Format from an init
// function; any program that imports the backend package can then merge
// into, diff against, or inspect files of that format with no extra
// plumbing. The two journal encodings are Formats too (codec.go): the
// binary one is registered like any other, the JSONL one — which has no
// magic to sniff — is the default every dispatch falls back to.
type Format struct {
	// Name identifies the format in messages ("archive").
	Name string
	// Ext is the file extension, with dot (".arch"). A Merge destination
	// with this extension is written in the format.
	Ext string
	// Sniff reports whether a file starting with head (its first eight or
	// fewer bytes) is in the format. Sources are dispatched by content,
	// not extension, so renamed files keep working.
	Sniff func(head []byte) bool
	// OpenReader opens the file for streaming read-only access — the
	// file is never created, repaired, or truncated. It is how Merge,
	// Compact, LoadRecords, and ScanFile consume files of the format.
	OpenReader func(path string) (SourceReader, error)
	// Write atomically replaces dst with the given canonical record
	// sequence, consumed incrementally (never materialized), copying the
	// file mode from modeFrom when it exists (mirroring the journal's
	// writer). A yielded error aborts the write, leaving dst untouched.
	Write func(dst string, recs iter.Seq2[Record, error], modeFrom string) error
	// Inspect reports the file's shape without loading record payloads.
	Inspect func(path string) (Info, error)
}

// formats holds registered formats. Registration happens only from init
// functions (which the runtime serializes), so reads need no lock.
var formats []Format

// RegisterFormat registers an alternative store format with the journal
// tooling. Call it from the backend package's init function only; later
// registration races with lookups.
func RegisterFormat(f Format) {
	if f.Name == "" || f.Ext == "" || f.Sniff == nil || f.OpenReader == nil || f.Write == nil || f.Inspect == nil {
		panic(fmt.Sprintf("runstore: RegisterFormat: incomplete format %+v", f))
	}
	formats = append(formats, f)
}

// formatOf sniffs the file at path and returns its registered format, or
// the default JSONL journal. A missing or unreadable file is the journal
// too: its reader produces the right error.
func formatOf(path string) *Format {
	f, err := os.Open(path)
	if err != nil {
		return &journalFormat
	}
	defer f.Close()
	head := make([]byte, 8)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF {
		return &journalFormat
	}
	for i := range formats {
		if formats[i].Sniff(head[:n]) {
			return &formats[i]
		}
	}
	return &journalFormat
}

// formatForDst matches a destination path by extension: the file may not
// exist yet, so content sniffing cannot apply. Any other extension means
// the JSONL journal.
func formatForDst(path string) *Format {
	for i := range formats {
		if strings.HasSuffix(path, formats[i].Ext) {
			return &formats[i]
		}
	}
	return &journalFormat
}

// codecOf returns the journal encoding that writes files of format f,
// or nil when f is not one of the two journals.
func codecOf(f *Format) *codec {
	for _, c := range []*codec{jsonCodec, binaryCodec} {
		if f.Name == c.name {
			return c
		}
	}
	return nil
}
