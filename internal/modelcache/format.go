// Snapshot file format. One file holds the four contributor arrays of
// one model build, framed so every failure mode a crash or a partial
// copy can produce is detectable before any array is trusted:
//
//	magic   [8]byte  "MAGMODL\n"
//	version uint32   snapshotVersion
//	key     [32]byte sha256 content address (echoed; must match the
//	                 name-derived key, so a renamed or cross-copied
//	                 file is rejected as stale)
//	nEntry  uint64   contributor entry count
//	nGrid   uint64   len(gridStart) == numCells+1
//	payload          sector []int32, baseDB []float32, elev []float32,
//	                 gridStart []int32, each little-endian
//	crc     uint32   IEEE CRC-32 of everything above
//
// All integers are little-endian. The version bumps whenever the
// contributor layout or the key recipe changes; old files then fail the
// version check and are rebuilt rather than misread.
package modelcache

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/topology"
)

const snapshotVersion = 1

var snapshotMagic = [8]byte{'M', 'A', 'G', 'M', 'O', 'D', 'L', '\n'}

// storeSnapshot writes the model's contributor arrays to path
// atomically: the bytes go to a temp file in the same directory, which
// is fsynced and renamed over path only once complete, so readers never
// observe a partial snapshot. Returns the bytes written.
func storeSnapshot(path, key string, m *netmodel.Model) (int64, error) {
	keyBytes, err := hex.DecodeString(key)
	if err != nil || len(keyBytes) != 32 {
		return 0, fmt.Errorf("modelcache: malformed key %q", key)
	}
	sector, baseDB, elev, gridStart := m.Contributors()

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	buf := bufio.NewWriterSize(tmp, 1<<20)
	crc := crc32.NewIEEE()
	w := &countWriter{w: io.MultiWriter(buf, crc)}

	write := func(data any) error {
		return binary.Write(w, binary.LittleEndian, data)
	}
	if err := write(snapshotMagic); err != nil {
		return 0, err
	}
	if err := write(uint32(snapshotVersion)); err != nil {
		return 0, err
	}
	if err := write(keyBytes); err != nil {
		return 0, err
	}
	if err := write(uint64(len(sector))); err != nil {
		return 0, err
	}
	if err := write(uint64(len(gridStart))); err != nil {
		return 0, err
	}
	for _, arr := range []any{sector, baseDB, elev, gridStart} {
		if err := write(arr); err != nil {
			return 0, err
		}
	}
	// CRC covers everything framed so far; it is written raw (not
	// through w) so it is excluded from itself.
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	if _, err := buf.Write(crcBuf[:]); err != nil {
		return 0, err
	}
	total := w.n + int64(len(crcBuf))

	if err := buf.Flush(); err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return 0, err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return 0, err
	}
	return total, nil
}

// loadSnapshot reads and validates path, reconstructing a model whose
// core aliases the snapshot bytes directly (mmap where the platform
// supports it, one os.ReadFile allocation otherwise — never a second
// materialization of the arrays). Any framing, checksum, version or key
// mismatch returns an error (the caller treats all of them as
// "rebuild"). Returns the bytes read and whether they are memory-mapped.
func loadSnapshot(path, key string, net *topology.Network, spm *propagation.SPM, region geo.Rect, params netmodel.Params) (m *netmodel.Model, n int64, mapped bool, err error) {
	raw, release, mapped, err := readSnapshotBytes(path)
	if err != nil {
		return nil, 0, false, err
	}
	// Until the arrays are adopted by a core, this function owns the
	// backing; release it on every validation failure.
	fail := func(err error) (*netmodel.Model, int64, bool, error) {
		if release != nil {
			release()
		}
		return nil, 0, false, err
	}
	const header = 8 + 4 + 32 + 8 + 8
	if len(raw) < header+4 {
		return fail(fmt.Errorf("modelcache: snapshot truncated (%d bytes)", len(raw)))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return fail(fmt.Errorf("modelcache: snapshot checksum mismatch"))
	}
	if [8]byte(body[:8]) != snapshotMagic {
		return fail(fmt.Errorf("modelcache: bad snapshot magic"))
	}
	if v := binary.LittleEndian.Uint32(body[8:12]); v != snapshotVersion {
		return fail(fmt.Errorf("modelcache: snapshot version %d, want %d", v, snapshotVersion))
	}
	if hex.EncodeToString(body[12:44]) != key {
		return fail(fmt.Errorf("modelcache: snapshot key mismatch"))
	}
	nEntry := binary.LittleEndian.Uint64(body[44:52])
	nGrid := binary.LittleEndian.Uint64(body[52:60])
	payload := uint64(len(body) - header)
	want := nEntry*(4+4+4) + nGrid*4
	if want != payload || nEntry > uint64(len(raw)) || nGrid > uint64(len(raw)) {
		return fail(fmt.Errorf("modelcache: snapshot payload is %d bytes, frame says %d", payload, want))
	}
	arrays := decodeArrays(body[header:], int(nEntry), int(nGrid))
	m, err = netmodel.NewModelFromContributors(net, spm, region, params,
		arrays.sector, arrays.baseDB, arrays.elev, arrays.gridStart)
	if err != nil {
		return fail(err)
	}
	if arrays.aliased {
		// The core's arrays alias raw: hand over the release (munmap)
		// for the core's end of life. For the heap-read path release is
		// nil — the GC frees the buffer with the core.
		m.Core().SetBacking(release)
	} else if release != nil {
		// Big-endian host copied the arrays out; the backing can go now.
		release()
	}
	return m, int64(len(raw)), mapped, nil
}

// readSnapshotBytes returns the file's contents, preferring a read-only
// memory mapping (zero heap allocation, page cache shared across
// processes) and falling back to one os.ReadFile allocation. release is
// nil when the GC owns the buffer.
func readSnapshotBytes(path string) (raw []byte, release func(), mapped bool, err error) {
	if mmapSupported {
		if raw, release, err = mapFile(path); err == nil {
			return raw, release, true, nil
		}
		if os.IsNotExist(err) {
			return nil, nil, false, err
		}
		// Mapping can fail where plain reads succeed (e.g. filesystems
		// without mmap support); fall through.
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	return raw, nil, false, nil
}

// countWriter counts bytes passed through to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
