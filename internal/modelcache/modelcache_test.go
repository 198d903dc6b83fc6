package modelcache

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/terrain"
	"magus/internal/topology"
)

// testInputs returns a small suburban build input set.
func testInputs(t testing.TB, seed int64) (*topology.Network, *propagation.SPM, geo.Rect, netmodel.Params) {
	t.Helper()
	net := topology.MustGenerate(topology.GenConfig{
		Seed:   seed,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 5000, 5000),
	})
	spm := propagation.MustNewSPM(2.635e9, nil)
	return net, spm, net.Bounds, netmodel.Params{CellSizeM: 250}
}

// mustEqualModels fails unless the two models' contributor arrays are
// bit-identical.
func mustEqualModels(t *testing.T, want, got *netmodel.Model) {
	t.Helper()
	ws, wb, we, wg := want.Contributors()
	gs, gb, ge, gg := got.Contributors()
	if len(ws) != len(gs) || len(wg) != len(gg) {
		t.Fatalf("shape mismatch: %d/%d entries, %d/%d gridStart", len(ws), len(gs), len(wg), len(gg))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("sector[%d] = %d, want %d", i, gs[i], ws[i])
		}
		if math.Float32bits(wb[i]) != math.Float32bits(gb[i]) {
			t.Fatalf("baseDB[%d] = %v, want %v", i, gb[i], wb[i])
		}
		if math.Float32bits(we[i]) != math.Float32bits(ge[i]) {
			t.Fatalf("elev[%d] = %v, want %v", i, ge[i], we[i])
		}
	}
	for i := range wg {
		if wg[i] != gg[i] {
			t.Fatalf("gridStart[%d] = %d, want %d", i, gg[i], wg[i])
		}
	}
}

func TestLoadOrBuildRoundtrip(t *testing.T) {
	net, spm, region, params := testInputs(t, 11)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	m1, err := c.LoadOrBuild(net, spm, region, params)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Builds != 1 || st.Stores != 1 || st.Hits != 0 {
		t.Fatalf("after cold build: %+v", st)
	}

	// The second call loads the snapshot file into a core of its own.
	m2, err := c.LoadOrBuild(net, spm, region, params)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Builds != 1 {
		t.Fatalf("after warm disk load: %+v", st)
	}
	if m1 == m2 {
		t.Fatal("LoadOrBuild must return independent models")
	}
	if m1.Core() == m2.Core() {
		t.Fatal("a snapshot load must materialize a new core")
	}
	mustEqualModels(t, m1, m2)

	// A loaded model must behave identically, not just store the same
	// arrays: evaluate a baseline state on both.
	if m1.NumContributors() != m2.NumContributors() {
		t.Fatalf("contributors: %d vs %d", m1.NumContributors(), m2.NumContributors())
	}
}

// TestCoreBytesAgree: one market's core counts the same bytes whether
// it was built without a cache, built and stored, or loaded from the
// stored snapshot.
func TestCoreBytesAgree(t *testing.T) {
	net, spm, region, params := testInputs(t, 11)
	direct := netmodel.MustNewModel(net, spm, region, params).Core().Bytes()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	built, err := c.LoadOrBuild(net, spm, region, params)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := c.LoadOrBuild(net, spm, region, params)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 1 || st.Stores != 1 || st.Hits != 1 {
		t.Fatalf("want one build, one store and one load: %+v", st)
	}
	if b, l := built.Core().Bytes(), loaded.Core().Bytes(); direct <= 0 || b != direct || l != direct {
		t.Errorf("core bytes: direct %d, built and stored %d, loaded %d; want all equal", direct, b, l)
	}
}

func TestKeySensitivity(t *testing.T) {
	net, spm, region, params := testInputs(t, 11)
	base := Key(net, spm, region, params)

	p2 := params
	p2.CellSizeM = 200
	if Key(net, spm, region, p2) == base {
		t.Error("cell size change must change the key")
	}
	p3 := params
	p3.BuildWorkers = 7
	if Key(net, spm, region, p3) != base {
		t.Error("BuildWorkers must not affect the key")
	}
	net2, _, _, _ := testInputs(t, 12)
	if Key(net2, spm, region, params) == base {
		t.Error("topology change must change the key")
	}
	spm2 := propagation.MustNewSPM(2.635e9, nil)
	spm2.ClutterWeight = 0.5
	if Key(net, spm2, region, params) == base {
		t.Error("SPM constant change must change the key")
	}

	terr := terrain.MustGenerate(terrain.Config{Seed: 5, Bounds: region, Resolution: 500})
	spmT := propagation.MustNewSPM(2.635e9, terr)
	withTerrain := Key(net, spmT, region, params)
	if withTerrain == base {
		t.Error("terrain presence must change the key")
	}
	terr2 := terrain.MustGenerate(terrain.Config{Seed: 6, Bounds: region, Resolution: 500})
	spmT2 := propagation.MustNewSPM(2.635e9, terr2)
	if Key(net, spmT2, region, params) == withTerrain {
		t.Error("terrain content must change the key")
	}
}

// TestLoadOrBuildSingleFlight hammers one key from many goroutines and
// asserts exactly one build ran: the leader builds and stores, the
// followers load the fresh snapshot. Run under -race this also
// exercises the claim that SPM queries are safe for concurrent readers.
func TestLoadOrBuildSingleFlight(t *testing.T) {
	net, spm, region, params := testInputs(t, 21)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	models := make([]*netmodel.Model, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			m, err := c.LoadOrBuild(net, spm, region, params)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			models[i] = m
		}(i)
	}
	close(start)
	wg.Wait()

	st := c.Stats()
	if st.Builds != 1 {
		t.Fatalf("got %d builds, want exactly 1 (stats %+v)", st.Builds, st)
	}
	if st.Hits < callers-1 {
		t.Fatalf("got %d hits, want >= %d (stats %+v)", st.Hits, callers-1, st)
	}
	for i := 1; i < callers; i++ {
		if models[i] == nil {
			t.Fatalf("caller %d got no model", i)
		}
		if models[i] == models[0] {
			t.Fatalf("callers 0 and %d share a model", i)
		}
		mustEqualModels(t, models[0], models[i])
	}
}

// TestCorruptSnapshotFallback flips bytes at several offsets, truncates
// the file and swaps two sectors of a cell; every damaged variant must
// be rejected and silently rebuilt into a fresh valid snapshot.
func TestCorruptSnapshotFallback(t *testing.T) {
	net, spm, region, params := testInputs(t, 31)
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.LoadOrBuild(net, spm, region, params)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, Key(net, spm, region, params)+".snap")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"flip-magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flip-version": func(b []byte) []byte { b[9] ^= 0xff; return b },
		"flip-key":     func(b []byte) []byte { b[20] ^= 0xff; return b },
		"flip-payload": func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
		"flip-crc":     func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"truncate":     func(b []byte) []byte { return b[:len(b)/3] },
		"empty":        func(b []byte) []byte { return b[:0] },
	}
	// A cell whose first two sectors are swapped, under a valid
	// checksum: only NewCore's ascending-sector check can reject it.
	_, _, _, gridStart := want.Contributors()
	cell := 0
	for gridStart[cell+1]-gridStart[cell] < 2 {
		cell++
	}
	corruptions["unsorted-cell"] = func(b []byte) []byte {
		const header = 8 + 4 + 32 + 8 + 8
		at := header + 4*int(gridStart[cell])
		first := binary.LittleEndian.Uint32(b[at:])
		copy(b[at:at+4], b[at+4:at+8])
		binary.LittleEndian.PutUint32(b[at+4:], first)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			before := c.Stats()
			damaged := corrupt(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := c.LoadOrBuild(net, spm, region, params)
			if err != nil {
				t.Fatalf("corrupt snapshot must rebuild, got error: %v", err)
			}
			mustEqualModels(t, want, got)
			after := c.Stats()
			if after.Errors <= before.Errors {
				t.Error("corruption was not counted")
			}
			if after.Builds <= before.Builds {
				t.Error("corruption must force a rebuild")
			}
			// The rebuild re-stored a valid snapshot.
			if restored, err := os.ReadFile(path); err != nil || len(restored) != len(pristine) {
				t.Fatalf("snapshot not restored: len=%d err=%v", len(restored), err)
			}
		})
	}
}

func TestNilCacheBuildsDirectly(t *testing.T) {
	net, spm, region, params := testInputs(t, 41)
	var c *Cache
	m, err := c.LoadOrBuild(net, spm, region, params)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.NumContributors() == 0 {
		t.Fatal("nil cache must still build a usable model")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats must be zero, got %+v", st)
	}
	if c.Dir() != "" {
		t.Error("nil cache dir must be empty")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir must fail")
	}
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Error("dir under a regular file must fail")
	}
}
