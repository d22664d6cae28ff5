// Package framelog is the one append-only file under every journal in
// this repository: the JSONL and binary run journals (internal/runstore),
// the collector's control-state log, the warehouse index, and the
// block-indexed archive. It owns the whole life of such a file — create,
// scan, recover from a crash, append durably, fail-stop — so each of
// those stores keeps only its payload codec. AtomicWrite, beside it, is
// the one way a whole file is replaced.
//
// A file is an optional magic header followed by records in one of two
// framings (docs/FORMAT.md, "Frame log"):
//
//	Lines             payload '\n'
//	Frames(magic, …)  magic | ( u32 len | u32 CRC-32C(payload) | payload )*
//
// (integers little-endian; a frame's payload is never empty). There is
// one recovery rule. A crash can only cut the last Commit short, so
// damage a cut explains is a torn tail and is dropped: a short or
// checksum-failed trailing frame, an all-zero frame header (a region the
// file was extended over but never written), an undecodable final line
// with no terminator, a file holding a strict prefix of its magic (a
// crashed creation, which restarts the file). Damage a cut cannot
// explain is corruption and is an error: an undecodable terminated line
// or checksum-valid frame, a frame header claiming an impossible length,
// a foreign magic. Dropping complete records silently would turn resume
// into silent re-execution.
//
// A Log is not safe for concurrent use; its owner serializes Commit and
// Close (every owner already holds a mutex over its in-memory index).
package framelog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// FrameHeaderSize is the size of a checksummed frame's header: the
// payload length and the payload's CRC-32C, four bytes each.
const FrameHeaderSize = 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing says how a log file delimits its records. There are two:
// Lines, and the checksummed frames Frames builds.
type Framing struct {
	frames     bool   // checksummed frames; false is line framing
	what       string // names the file kind in errors
	magic      string
	maxPayload uint32
}

// Lines frames each record as one '\n'-terminated line. Whitespace-only
// lines are skipped on scan; a payload must not contain a newline.
var Lines = Framing{}

// Frames frames each record as a length-prefixed CRC-32C-checksummed
// frame, in a file that starts with magic. what names the file kind in
// errors ("binary journal"); maxPayload bounds a frame so a corrupt
// length field cannot drive a giant allocation during a scan.
func Frames(what, magic string, maxPayload uint32) Framing {
	return Framing{frames: true, what: what, magic: magic, maxPayload: maxPayload}
}

// Magic returns the header every file in this framing starts with; ""
// for Lines.
func (fr Framing) Magic() string { return fr.magic }

// Reserve appends the room one record's header needs to dst. Encode the
// payload after it, then Seal.
func (fr Framing) Reserve(dst []byte) []byte {
	if !fr.frames {
		return dst
	}
	return append(dst, make([]byte, FrameHeaderSize)...)
}

// Seal completes the record begun at dst[start:] by Reserve, whose
// payload is everything encoded since: it patches the frame header in
// place, or terminates the line. One buffer, no payload copy.
func (fr Framing) Seal(dst []byte, start int) []byte {
	if !fr.frames {
		return append(dst, '\n')
	}
	payload := dst[start+FrameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Terminator returns what follows a record's extent (off, n) on disk: a
// line's newline, nothing after a checksummed frame. A record copied by
// its extent is whole once this is written after it.
func (fr Framing) Terminator() string {
	if !fr.frames {
		return "\n"
	}
	return ""
}

// Payload returns the payload inside one whole record as a scan
// reported it (off, n), or nil when those bytes are not one: a frame
// whose header does not give the rest as its length, or whose checksum
// fails. A point read checks what a scan would have, so a frame reached
// through an index of its own (an archive's) is verified when read.
func (fr Framing) Payload(record []byte) []byte {
	if !fr.frames {
		return record
	}
	if len(record) < FrameHeaderSize ||
		binary.LittleEndian.Uint32(record[0:4]) != uint32(len(record)-FrameHeaderSize) ||
		crc32.Checksum(record[FrameHeaderSize:], castagnoli) != binary.LittleEndian.Uint32(record[4:8]) {
		return nil
	}
	return record[FrameHeaderSize:]
}

// corrupt marks an error as "this payload does not decode".
type corrupt struct{ error }

// Corrupt marks err as a payload its consumer could not decode. A scan
// callback returns it so the scan can apply the recovery rule: the
// unterminated final line of a file is then a torn tail, anything else
// is corruption and fails the scan with err itself. Errors not marked
// this way stop the scan and are returned as they are.
func Corrupt(err error) error { return corrupt{err} }

// A Visit receives one record's payload during a scan, with the
// absolute offset and length of the whole record (frame header
// included; line terminator excluded). The payload buffer is reused:
// copy what must outlive the call.
type Visit func(payload []byte, off, n int64) error

// Scan reads records from r, which is positioned past any magic at
// absolute file offset base, calling fn for each, and returns the offset
// up to which the input is intact and whether a torn tail follows it.
// It is the whole recovery rule for a record stream; a wire stream in
// either framing is scanned with it too.
func (fr Framing) Scan(r io.Reader, base int64, fn Visit) (keep int64, torn bool, err error) {
	br := getReader(r)
	defer putReader(br)
	return fr.scan(br, base, fn)
}

// ScanFile is Scan over a whole file image: it checks the magic first.
// An empty file is a fresh log; a strict prefix of the magic is a
// crashed creation (keep 0, torn).
func (fr Framing) ScanFile(r io.Reader, fn Visit) (keep int64, torn bool, err error) {
	br := getReader(r)
	defer putReader(br)
	head := make([]byte, len(fr.magic))
	n, rerr := io.ReadFull(br, head)
	if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
		return 0, false, rerr
	}
	if string(head[:n]) != fr.magic[:n] {
		return 0, false, fmt.Errorf("not a %s (bad magic)", fr.what)
	}
	if n < len(fr.magic) {
		return 0, n > 0, nil
	}
	return fr.scan(br, int64(n), fn)
}

// readerPool recycles the scans' read buffers: a scan is one per ingest
// batch on the collector daemon and one per file everywhere else, and a
// fresh 64 KiB buffer for each was a tenth of what a fleet run allocates.
// A Visit payload may point into the buffer, which is why it is valid
// only until the scan's next step and never after the scan returns.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
}

func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putReader returns a scan's reader to the pool, letting go of the
// stream it read.
func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

func (fr Framing) scan(br *bufio.Reader, base int64, fn Visit) (keep int64, torn bool, err error) {
	if !fr.frames {
		return scanLines(br, base, fn)
	}
	return fr.scanFrames(br, base, fn)
}

func scanLines(br *bufio.Reader, off int64, fn Visit) (keep int64, torn bool, err error) {
	var long []byte // gathers a line longer than the reader's buffer
	for {
		// The line is handed over where the reader holds it, valid until
		// the next read — Visit's payload rule — and copied only when the
		// reader's buffer cannot hold all of it.
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = long[:0]
			for rerr == bufio.ErrBufferFull {
				long = append(long, line...)
				line, rerr = br.ReadSlice('\n')
			}
			long = append(long, line...)
			line = long
		}
		if rerr != nil && rerr != io.EOF {
			// A real read failure must surface, never pass for a torn
			// tail: a rewriting consumer would drop the unread remainder.
			return 0, false, rerr
		}
		terminated := rerr == nil
		raw := line
		if terminated {
			raw = line[:len(line)-1]
		}
		if len(bytes.TrimSpace(raw)) > 0 {
			if ferr := fn(raw, off, int64(len(raw))); ferr != nil {
				var c corrupt
				if !errors.As(ferr, &c) {
					return 0, false, ferr
				}
				if !terminated {
					return off, true, nil
				}
				return 0, false, c.error
			}
		}
		off += int64(len(line))
		if !terminated {
			return off, false, nil // EOF; a last line without its terminator is kept
		}
	}
}

// Length-prefixed framing cannot resynchronize past damage, so the first
// invalid frame ends the readable region.
func (fr Framing) scanFrames(br *bufio.Reader, off int64, fn Visit) (keep int64, torn bool, err error) {
	var hdr [FrameHeaderSize]byte
	var payload []byte
	for {
		if _, rerr := io.ReadFull(br, hdr[:]); rerr != nil {
			switch rerr {
			case io.EOF:
				return off, false, nil // clean EOF at a frame boundary
			case io.ErrUnexpectedEOF:
				return off, true, nil // torn mid-header
			}
			return 0, false, rerr
		}
		if hdr == [FrameHeaderSize]byte{} {
			// No frame is empty, so a zero header was never written: it is
			// space the file grew by before a crash, read back as zeros.
			return off, true, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > fr.maxPayload {
			// A cut leaves a prefix of a valid frame, so a complete header
			// is a written header: an absurd length is damage.
			return 0, false, fmt.Errorf("corrupt %s frame at byte %d: impossible payload length %d (max %d)", fr.what, off, n, fr.maxPayload)
		}
		var rerr error
		if payload, rerr = readPayload(br, payload, int(n)); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return off, true, nil // torn mid-payload
			}
			return 0, false, rerr
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return off, true, nil
		}
		frameLen := int64(FrameHeaderSize) + int64(n)
		if ferr := fn(payload, off, frameLen); ferr != nil {
			// The checksum vouches for the bytes, so a payload that does
			// not decode was written that way: never a torn tail.
			var c corrupt
			if errors.As(ferr, &c) {
				ferr = c.error
			}
			return 0, false, ferr
		}
		off += frameLen
	}
}

// readPayload reads n bytes from r into buf, reusing its capacity and
// growing it only as the bytes arrive, so a length the stream does not
// back — a cut frame's, a corrupt one's — costs what the stream holds,
// not what the header claims.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 64<<10)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Log is an open log file positioned for appending.
type Log struct {
	path   string
	f      *os.File // nil once closed
	torn   bool
	cut    int64 // OpenAt's end, until the first Commit cuts the file there; -1 once done
	failed error // the first Truncate, Write or Sync failure; sticky
}

// Open opens the log at path, creating it (and its directory) if
// absent, and replays every intact record through replay. A torn tail
// is truncated away, a decodable but unterminated final line is
// terminated, and a new or restarted file gets its directory entry
// synced, then its magic written and synced — the file is left ending
// on a record boundary, and every Commit lands at its end (O_APPEND).
// Errors name the path; a corruption error also names the byte offset.
func Open(path string, fr Framing, replay Visit) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, f: f, cut: -1}
	if err := l.restore(fr, replay); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenAt opens the existing log at path for appending at end, a record
// boundary its caller has already verified through an index of its own
// (an archive's trailer and footer), so nothing is replayed: the open is
// a seek, however long the file. Whatever lies past end — what that
// index was reached through — stays until the first Commit, which cuts
// it off and makes the cut durable before anything lands in its place,
// so a session that commits nothing leaves the file as it was.
func OpenAt(path string, end int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return &Log{path: path, f: f, cut: end}, nil
}

func (l *Log) restore(fr Framing, replay Visit) error {
	keep, torn, err := fr.ScanFile(l.f, replay)
	if err != nil {
		return fmt.Errorf("%s: %w", l.path, err)
	}
	l.torn = torn
	if torn {
		if err := l.f.Truncate(keep); err != nil {
			return fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	if keep == 0 {
		// A file that holds nothing yet may be one this Open created (or
		// one a crash left before getting this far): a Commit is durable
		// only if the file's name is. Before the magic, so a crash in
		// between leaves a file that reopens through here again.
		if err := SyncDir(filepath.Dir(l.path)); err != nil {
			return err
		}
	}
	switch {
	case fr.frames && keep == 0:
		if _, err = l.f.WriteString(fr.magic); err == nil {
			err = l.f.Sync()
		}
	case !fr.frames && keep > 0:
		// A last line that decoded but was never terminated (a journal
		// edited by hand): terminate it so the next record starts a line.
		var last [1]byte
		if _, err = l.f.ReadAt(last[:], keep-1); err == nil && last[0] != '\n' {
			_, err = l.f.WriteString("\n")
		}
	}
	return err
}

// dirSynced is a test hook: when set, SyncDir reports every directory it
// has synced.
var dirSynced func(dir string)

// SyncDir makes dir's entries durable: a file created in it, or renamed
// into it, survives power loss only after this returns. Open calls it
// for a log it creates, AtomicWrite after its rename. It is never on an
// append path.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err == nil && dirSynced != nil {
		dirSynced(dir)
	}
	return err
}

// AtomicWrite replaces dst with whatever emit writes: a temporary file in
// dst's directory, one fsync, a rename over dst, then SyncDir so the
// rename itself survives power loss. The file mode is copied from
// modeFrom when that file exists (rewriting a file in place never
// silently changes its permissions), 0644 otherwise. On any error —
// emit's is returned as it is — dst is left untouched. Every whole-file
// rewrite in the repository goes through it: Merge, Compact, the
// archive's bulk writer, and the gate's baseline file (Summary.Save).
func AtomicWrite(dst, modeFrom string, emit func(w *bufio.Writer) error) error {
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(dst)+".rewrite-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(modeFrom); err == nil {
		mode = fi.Mode().Perm()
	}
	err = tmp.Chmod(mode)
	if err == nil {
		bw := bufio.NewWriterSize(tmp, 256<<10)
		if err = emit(bw); err == nil {
			err = bw.Flush()
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return err
	}
	return SyncDir(dir)
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Torn reports whether Open dropped a torn tail.
func (l *Log) Torn() bool { return l.torn }

// Commit appends data — whole sealed records — with one Write and one
// Sync, and returns once they are durable. The first failure of either
// is sticky: every later Commit returns that same error until the file
// is reopened. A short write leaves a torn tail Open knows how to drop,
// but only while it is the tail; a later successful append would bury it
// as a corrupt interior record, which Open rightly refuses.
func (l *Log) Commit(data []byte) error {
	switch {
	case l.f == nil:
		return fmt.Errorf("framelog: %s is closed", l.path)
	case l.failed != nil:
		return l.failed
	}
	var err error
	if l.cut >= 0 {
		// Synced on its own: a cut that a crash undid under records already
		// written past it would leave the old tail's bytes behind them.
		if err = l.f.Truncate(l.cut); err == nil {
			err = l.f.Sync()
		}
		l.cut = -1
	}
	if err == nil {
		_, err = l.f.Write(data)
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.failed = fmt.Errorf("framelog: %s failed and must be reopened: %w", l.path, err)
	}
	return l.failed
}

// Close closes the file; a second Close is a no-op.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
