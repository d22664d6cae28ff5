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
// one recovery rule. A crash can only cut short the commits written since
// the last settled one (see below), so damage a cut explains is a torn
// tail and is dropped: a short or checksum-failed trailing frame, an
// all-zero frame header (a region the file was extended over but never
// written), an undecodable final line with no terminator, a file holding
// a strict prefix of its magic (a crashed creation, which restarts the
// file). Damage a cut cannot
// explain is corruption and is an error: an undecodable terminated line
// or checksum-valid frame, a frame header claiming an impossible length,
// a foreign magic. Dropping complete records silently would turn resume
// into silent re-execution.
//
// Commit is safe for concurrent use. Writes are serialized, so the file
// holds commits in the order they were written; syncs overlap, and a
// commit is settled — durable, and its callback run — once its own sync
// has succeeded and every earlier commit is settled. The bytes written since
// the last settled commit are one contiguous tail, so a crash still
// leaves a prefix of it, which the one recovery rule covers. The first
// failure poisons the log and cuts the file back to the last settled
// commit; every unsettled commit returns that error.
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

// Sections cuts a file of size bytes in this framing, read through r, into
// at most n sections of at least floor bytes each, for a reader that scans
// them side by side, and returns their bounds: 0, every cut, size. Only
// Lines cuts: a payload never holds a newline, so a cut just past one
// ends a line and starts the next, and every section but the last ends
// on a terminated line — a torn tail can only end the last. Scan each
// section from its first bound with Scan (ScanFile for the first); the
// first error by offset is the file's, and the last section's keep and
// torn are the file's. Length-prefixed frames cannot resynchronize, so a
// Frames file is one section.
func (fr Framing) Sections(r io.ReaderAt, size int64, n int, floor int64) ([]int64, error) {
	floor = max(floor, 1)
	bounds := []int64{0}
	if !fr.frames {
		n = int(min(int64(n), size/floor))
		var buf [4 << 10]byte
		for k := 1; k < n; k++ {
			cut, err := lineAfter(r, max(int64(k)*size/int64(n), bounds[len(bounds)-1]+floor), size, buf[:])
			if err != nil {
				return nil, err
			}
			if size-cut < floor {
				break
			}
			bounds = append(bounds, cut)
		}
	}
	return append(bounds, size), nil
}

// lineAfter returns the offset just past the first newline at or after
// from-1 — from itself when a line ends just before it — or size when no
// line ends before size.
func lineAfter(r io.ReaderAt, from, size int64, buf []byte) (int64, error) {
	for off := from - 1; off < size; {
		chunk := buf[:min(int64(len(buf)), size-off)]
		n, err := r.ReadAt(chunk, off)
		if i := bytes.IndexByte(chunk[:n], '\n'); i >= 0 {
			return off + int64(i) + 1, nil
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		off += int64(n)
	}
	return size, nil
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

// Log is an open log file positioned for appending. Commit and Close are
// safe for concurrent use.
type Log struct {
	path string
	torn bool

	mu      sync.Mutex
	turn    sync.Cond  // on mu: a commit settled or the log failed, or a sync ended
	f       *os.File   // the writer's descriptor
	closed  bool       // Close has begun: Commit fails
	busy    bool       // a sync on f is in flight
	spares  []*os.File // idle second descriptors on path, for syncs that overlap one on f
	syncing int        // syncs in flight
	cut     bool       // the file runs past end until the first Commit cuts it there (OpenAt)
	failed  error      // the first failure; sticky
	end     int64      // where the next Commit's bytes land
	settled int64      // the end of the last settled commit
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
	l := newLog(path, f)
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
	l := newLog(path, f)
	l.cut, l.end, l.settled = true, end, end
	return l, nil
}

func newLog(path string, f *os.File) *Log {
	l := &Log{path: path, f: f}
	l.turn.L = &l.mu
	return l
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
	var n int
	switch {
	case fr.frames && keep == 0:
		if n, err = l.f.WriteString(fr.magic); err == nil {
			err = l.f.Sync()
		}
	case !fr.frames && keep > 0:
		// A last line that decoded but was never terminated (a journal
		// edited by hand): terminate it so the next record starts a line.
		var last [1]byte
		if _, err = l.f.ReadAt(last[:], keep-1); err == nil && last[0] != '\n' {
			n, err = l.f.WriteString("\n")
		}
	}
	l.end = keep + int64(n)
	l.settled = l.end
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
// rewrite in the repository goes through it: Merge, Compact and the
// archive's bulk writer.
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
// Sync, and returns nil once they are settled: durable, and announced by
// settled, which may be nil. It is safe for concurrent use. Writes are
// serialized under the log's lock, so the file's order is the order of
// the commits; the sync runs outside it, so concurrent commits share the
// disk's flush instead of queuing for it. A commit is settled once its
// own sync has succeeded and every commit written before it is settled:
// one whose sync finishes first waits its turn. So settled callbacks run
// in write order, under the log's lock, on the committer's goroutine.
//
// A lone commit syncs on the writer's descriptor, one that overlaps
// another's sync on a second descriptor of the same file. Linux reports a
// writeback error once per open file description, so on a shared one a
// later sync could miss an error an earlier one consumed. A second
// descriptor opened after another had consumed an error misses it too,
// which is why no commit settles on another's sync: the commit whose
// sync consumed the error fails, and with it every unsettled one.
//
// The first failure — of a Truncate, a Write, a Sync, or the open of a
// second descriptor — is sticky: nothing settles after it, and every
// unsettled commit and every later one returns that same error until the
// file is reopened. The file is cut back to the end of the last settled
// commit first. Bytes an error may have left half written must stay a
// tail Open drops or never exist: a later successful append would bury
// them as a corrupt interior record, which Open rightly refuses.
func (l *Log) Commit(data []byte, settled func()) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.end
	f, err := l.write(data)
	if err != nil {
		return err
	}
	end := l.end
	l.syncing++
	l.mu.Unlock()
	if commitSync != nil {
		err = commitSync(f)
	} else {
		err = f.Sync()
	}
	l.mu.Lock()
	defer l.turn.Broadcast()
	l.syncing--
	if f == l.f {
		l.busy = false
	} else {
		l.spares = append(l.spares, f)
	}
	if err != nil {
		l.fail(err)
	}
	for l.failed == nil && l.settled != start {
		l.turn.Wait()
	}
	if l.failed != nil {
		return l.failed
	}
	if settled != nil {
		settled()
	}
	l.settled = end
	return nil
}

// commitSync is a test hook: when set, a Commit's sync calls it instead
// of f.Sync.
var commitSync func(f *os.File) error

// write appends data at the end of the file and returns the descriptor
// its sync is to run on. Called with l.mu held.
func (l *Log) write(data []byte) (*os.File, error) {
	switch {
	case l.closed:
		return nil, fmt.Errorf("framelog: %s is closed", l.path)
	case l.failed != nil:
		return nil, l.failed
	}
	var err error
	if l.cut {
		// Synced on its own: a cut that a crash undid under records already
		// written past it would leave the old tail's bytes behind them.
		if err = l.f.Truncate(l.end); err == nil {
			err = l.f.Sync()
		}
		l.cut = false
	}
	if err == nil {
		var n int
		n, err = l.f.Write(data)
		l.end += int64(n)
	}
	var f *os.File
	if err == nil {
		f, err = l.syncer()
	}
	if err != nil {
		l.fail(err)
		return nil, l.failed
	}
	return f, nil
}

// syncer returns the descriptor a sync begun now runs on: the writer's,
// unless a sync on it is in flight, else an idle second descriptor,
// opened on first need. Called with l.mu held.
func (l *Log) syncer() (*os.File, error) {
	if !l.busy {
		l.busy = true
		return l.f, nil
	}
	if n := len(l.spares); n > 0 {
		f := l.spares[n-1]
		l.spares = l.spares[:n-1]
		return f, nil
	}
	return os.Open(l.path)
}

// fail makes err the log's sticky error — the unsettled commits return
// it, and their callbacks never run — and cuts the file back to the end
// of the last settled commit. Called with l.mu held.
func (l *Log) fail(err error) {
	if l.failed != nil {
		return
	}
	if l.end > l.settled {
		if terr := l.f.Truncate(l.settled); terr != nil {
			err = errors.Join(err, fmt.Errorf("cutting back to byte %d: %w", l.settled, terr))
		} else {
			// Its result is not checked: it may only report again the
			// writeback error being handled here.
			_ = l.f.Sync()
		}
	}
	l.failed = fmt.Errorf("framelog: %s failed and must be reopened: %w", l.path, err)
	l.turn.Broadcast()
}

// Close waits for the syncs in flight, then closes the file and every
// second descriptor; a second Close is a no-op. A Commit that begins
// after Close fails.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for l.syncing > 0 {
		l.turn.Wait()
	}
	err := l.f.Close()
	for _, f := range l.spares {
		err = errors.Join(err, f.Close())
	}
	l.spares = nil
	return err
}
