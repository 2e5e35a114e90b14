// Package walframe is the record framing SensorSafe's append-only logs
// share, and Log, the file mechanics of its control logs. segstore's
// write-ahead log uses the framing alone; the datastore's cursor log
// (cursors.log) and the broker's log (broker.log) are each a Log. A log
// is a sequence of frames
//
//	u32 bodyLen | u32 crc32(body) | body
//
// little-endian, with the IEEE CRC-32 of the body. A writer appends each
// frame in one Write call, so a crash can only leave frames it had not
// yet synced torn or corrupt. The body's layout is the caller's.
//
// What a bad frame means is the caller's torn-tail rule, applied to the
// *BadFrame that Scan stops at: in a log a crash may have cut short, a
// bad frame is the crash point and replay ends there. segstore's newest
// WAL file, appended without a sync per frame, takes any bad frame as
// that point. A log that syncs every frame before its append returns can
// only have its last frame torn, so it takes only a Final one.
package walframe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// HeaderLen is the bytes a frame adds to its body.
const HeaderLen = 8

// Append appends body's frame to dst.
func Append(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// BadFrame is a frame that is torn or fails its checksum.
type BadFrame struct {
	// Off is where the frame's header starts: the length of the good
	// frames before it.
	Off int
	// Reason is "torn frame header", "torn frame" or "CRC mismatch".
	Reason string
	// Final reports that no byte lies past the frame's declared end,
	// which is where a crash in the middle of its append leaves it.
	Final bool
}

func (e *BadFrame) Error() string { return fmt.Sprintf("%s at %d", e.Reason, e.Off) }

// Scan calls fn with the offset and body of each frame in data, in order.
// A frame whose header is cut short, whose body is shorter than minBody
// or runs past the end of data, or whose CRC does not match is bad: Scan
// stops there and returns it as a *BadFrame. It returns fn's first error
// as is. body is a slice of data, not a copy.
func Scan(data []byte, minBody int, fn func(off int, body []byte) error) error {
	off := 0
	for off < len(data) {
		if len(data)-off < HeaderLen {
			return &BadFrame{Off: off, Reason: "torn frame header", Final: true}
		}
		bodyLen := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		start := off + HeaderLen
		end := int64(start) + bodyLen
		if bodyLen < int64(minBody) || end > int64(len(data)) {
			return &BadFrame{Off: off, Reason: "torn frame", Final: end >= int64(len(data))}
		}
		body := data[start:end]
		if crc32.ChecksumIEEE(body) != sum {
			return &BadFrame{Off: off, Reason: "CRC mismatch", Final: end == int64(len(data))}
		}
		if err := fn(off, body); err != nil {
			return err
		}
		off = int(end)
	}
	return nil
}
