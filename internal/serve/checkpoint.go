package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"ml4all/internal/fault"
)

// Checkpoint frame: a fixed magic, a CRC32-Castagnoli of the payload, the
// payload length, then the gob TrainState. The CRC is what lets restart
// recovery tell a good checkpoint from a torn or bit-rotted one and fall
// back to an older frame instead of failing the job.
//
//	offset  size  field
//	0       8     magic "ML4CKPT1"
//	8       4     crc32c(payload), little-endian
//	12      4     len(payload), little-endian
//	16      ...   payload (gob TrainState)
var ckptMagic = []byte("ML4CKPT1")

// castagnoliTable is shared by checkpoint frames; model files use the same
// polynomial (ml4all.EncodeModel) so one corruption story covers both.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

func encodeCheckpointFrame(payload []byte) []byte {
	buf := make([]byte, 0, len(ckptMagic)+8+len(payload))
	buf = append(buf, ckptMagic...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.Checksum(payload, castagnoliTable))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

func decodeCheckpointFrame(raw []byte) ([]byte, error) {
	if len(raw) < len(ckptMagic)+8 || !bytes.Equal(raw[:len(ckptMagic)], ckptMagic) {
		return nil, fmt.Errorf("serve: checkpoint frame: bad magic or truncated header")
	}
	body := raw[len(ckptMagic):]
	sum := binary.LittleEndian.Uint32(body[0:4])
	n := binary.LittleEndian.Uint32(body[4:8])
	payload := body[8:]
	if uint64(len(payload)) != uint64(n) {
		return nil, fmt.Errorf("serve: checkpoint frame: %d payload bytes, header says %d", len(payload), n)
	}
	if crc32.Checksum(payload, castagnoliTable) != sum {
		return nil, fmt.Errorf("serve: checkpoint frame: checksum mismatch")
	}
	return payload, nil
}

// ckptFileName names a framed checkpoint by the iteration it captured;
// zero-padding makes lexicographic order chronological.
func ckptFileName(iteration int) string { return fmt.Sprintf("ckpt-%09d.ckpt", iteration) }

// listCheckpoints returns the checkpoint filenames in dir, newest first.
// Recovery walks this list front to back, skipping frames that fail their
// checksum.
func listCheckpoints(fsys fault.FS, dir string) []string {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".ckpt") {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}
