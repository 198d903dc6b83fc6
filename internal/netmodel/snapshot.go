// Snapshot access to the model's immutable core: the contributor
// arrays are the expensive-to-build, cheap-to-serialize part of a
// Model, and internal/modelcache persists them to disk keyed by a hash
// of the inputs so warm restarts skip the build entirely.
package netmodel

import (
	"magus/internal/geo"
	"magus/internal/propagation"
	"magus/internal/topology"
)

// Contributors exposes the built contributor arrays for serialization.
// The returned slices are the core's own backing arrays: callers must
// treat them as read-only and must not retain them beyond the model's
// lifetime (a snapshot-backed core releases its backing when
// collected).
func (m *Model) Contributors() (sector []int32, baseDB, elev []float32, gridStart []int32) {
	c := m.core
	return c.contribSector, c.contribBaseDB, c.contribElev, c.gridStart
}

// NewModelFromContributors reconstructs a model from previously built
// contributor arrays, skipping the O(gridCells x sectors) construction.
// The arrays are validated for shape and adopted without copying, so
// the caller must not mutate them afterwards. net, spm, region and
// params must be the inputs the arrays were originally built from — the
// snapshot cache guarantees this by keying snapshots on a hash of them;
// handing mismatched arrays that happen to pass the shape checks yields
// a silently wrong model.
func NewModelFromContributors(net *topology.Network, spm *propagation.SPM, region geo.Rect, params Params,
	sector []int32, baseDB, elev []float32, gridStart []int32) (*Model, error) {
	m, err := newModelShell(net, spm, region, params)
	if err != nil {
		return nil, err
	}
	core, err := NewCore(m.Grid, net.NumSectors(), sector, baseDB, elev, gridStart)
	if err != nil {
		return nil, err
	}
	m.core = core
	return m, nil
}
