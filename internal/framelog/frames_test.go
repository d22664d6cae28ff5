package framelog_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/framelog"
)

// TestScanFramesTornTails: what a crash leaves after the last whole frame
// ends the readable region there as a torn tail — zeros (a region the
// file grew by and never had written: an all-zero header is no frame, as
// no payload is empty), and a header whose length the rest of the file
// does not back, which costs what the file holds to find out, not the
// gigabyte the header claims.
func TestScanFramesTornTails(t *testing.T) {
	fr := framelog.Frames("test log", "TESTLOG\n", 1<<30)
	frame := fr.Seal(append(fr.Reserve(nil), "payload"...), 0)
	unbacked := binary.LittleEndian.AppendUint32(nil, 1<<30-1)
	unbacked = append(unbacked, "crc?some bytes"...)
	for name, tail := range map[string][]byte{
		"zero-filled": make([]byte, 4096),
		"unbacked":    unbacked,
	} {
		data := append(append([]byte(fr.Magic()), frame...), tail...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		visited := 0
		keep, torn, err := fr.ScanFile(bytes.NewReader(data), func([]byte, int64, int64) error {
			visited++
			return nil
		})
		runtime.ReadMemStats(&after)
		if want := int64(len(fr.Magic()) + len(frame)); err != nil || !torn || keep != want || visited != 1 {
			t.Errorf("%s: keep %d, torn %v, %v, %d frame(s) visited; want %d, torn, the one frame", name, keep, torn, err, visited, want)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: the scan allocated %d bytes", name, grown)
		}
	}
}
