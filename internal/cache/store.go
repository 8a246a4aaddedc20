package cache

import (
	"fmt"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/tensor"
)

// Location classifies where a feature read is served from, ordered by
// preference per the paper's feature-map rules.
type Location int

// Read locations.
const (
	// LocGPU is a local fp32 cache hit.
	LocGPU Location = iota
	// LocGPUQ is a local int8 warm-tier hit: the row is resident on
	// the device in quantized form and dequantized on gather.
	LocGPUQ
	// LocPeerGPU is a peer device's cache over NVLink.
	LocPeerGPU
	// LocLocalCPU is the machine's own CPU memory (UVA over PCIe).
	LocLocalCPU
	// LocRemoteCPU is another machine's CPU memory.
	LocRemoteCPU
	numLocations
)

// NumLocations is the number of read locations (for callers sizing
// per-location tables).
const NumLocations = int(numLocations)

// String implements fmt.Stringer.
func (l Location) String() string {
	switch l {
	case LocGPU:
		return "gpu"
	case LocGPUQ:
		return "gpu-int8"
	case LocPeerGPU:
		return "peer-gpu"
	case LocLocalCPU:
		return "local-cpu"
	case LocRemoteCPU:
		return "remote-cpu"
	default:
		return fmt.Sprintf("loc(%d)", int(l))
	}
}

// Store is the unified feature store: the master feature matrix
// (conceptually partitioned across machine CPUs), per-device cache
// bitsets, and the placement map.
type Store struct {
	Platform *hardware.Platform
	// Feats is the master copy; nil in accounting mode.
	Feats *tensor.Matrix
	// Dim is the feature width.
	Dim int
	// LoadDim is the width actually moved per node read: Dim for
	// GDP/SNP/DNP, Dim/C under NFP's dimension partitioning.
	LoadDim int
	// HostMachine[v] is the machine whose CPU stores v's feature.
	HostMachine []int32
	// QFeats holds the shared quantized copies backing every device's
	// int8 warm tier; nil until a tiered cache is configured. Rows are
	// quantized on admission (ConfigureCacheTiered) and indexed by
	// node ID, so kernels need no extra indirection; memory is
	// numNodes x (Dim+8) bytes, acceptable at reproduction scale.
	QFeats *tensor.QuantMatrix
	// cached[dev] is a bitset over nodes (fp32 hot tier).
	cached [][]uint64
	// qcached[dev] is a bitset over nodes resident in dev's int8 warm
	// tier; nil per device until configured.
	qcached [][]uint64
	// cachedLists keeps the configured cache lists for inspection.
	cachedLists [][]graph.NodeID
	// qcachedLists keeps the configured warm-tier lists.
	qcachedLists [][]graph.NodeID
	// cpuCached[machine] is a bitset of features replicated into that
	// machine's CPU memory beyond its hosted shard — the paper's
	// footnote 3: "hotness-based caching is conducted using excess CPU
	// memory". Nil when disabled.
	cpuCached [][]uint64
	numNodes  int
	// loc[dev] caches locate's answer per node as one byte, built
	// lazily on first use and dropped by every placement mutation.
	// Placement only changes at (re)configure time while the epoch loop
	// resolves millions of reads, so the accounting hot path becomes a
	// single table load instead of a bitset chain plus an NVLink peer
	// scan. Concurrent first readers may race to build identical
	// tables; last store wins, which is harmless.
	loc []atomic.Pointer[[]uint8]
}

// NewStore creates a feature store for n nodes of width dim. feats may
// be nil (accounting mode).
func NewStore(p *hardware.Platform, n, dim int, feats *tensor.Matrix) *Store {
	s := &Store{
		Platform:     p,
		Feats:        feats,
		Dim:          dim,
		LoadDim:      dim,
		HostMachine:  make([]int32, n),
		cached:       make([][]uint64, p.NumDevices()),
		qcached:      make([][]uint64, p.NumDevices()),
		cachedLists:  make([][]graph.NodeID, p.NumDevices()),
		qcachedLists: make([][]graph.NodeID, p.NumDevices()),
		numNodes:     n,
		loc:          make([]atomic.Pointer[[]uint8], p.NumDevices()),
	}
	words := (n + 63) / 64
	for d := range s.cached {
		s.cached[d] = make([]uint64, words)
	}
	return s
}

// invalidateLoc drops every device's location table; any placement
// mutation must call it (a change on one device can alter another's
// LocPeerGPU answers).
func (s *Store) invalidateLoc() {
	for d := range s.loc {
		s.loc[d].Store(nil)
	}
}

// locTable returns dev's location table, building it on first use.
func (s *Store) locTable(dev int) []uint8 {
	if t := s.loc[dev].Load(); t != nil {
		return *t
	}
	t := make([]uint8, s.numNodes)
	for v := range t {
		t[v] = uint8(s.locate(dev, graph.NodeID(v)))
	}
	s.loc[dev].Store(&t)
	return t
}

// HostByRange partitions features across machine CPUs by node-ID range
// (the GDP/NFP data layout for multi-machine training).
func (s *Store) HostByRange() {
	m := s.Platform.Machines
	per := (s.numNodes + m - 1) / m
	for v := range s.HostMachine {
		h := v / per
		if h >= m {
			h = m - 1
		}
		s.HostMachine[v] = int32(h)
	}
	s.invalidateLoc()
}

// HostByPartition places each node's feature on the machine hosting
// its partition's device (the SNP/DNP-aware layout). assign maps node
// -> device.
func (s *Store) HostByPartition(assign []int32) {
	for v, d := range assign {
		s.HostMachine[v] = int32(s.Platform.MachineOf(int(d)))
	}
	s.invalidateLoc()
}

// ConfigureCache installs the cache list for device dev.
func (s *Store) ConfigureCache(dev int, nodes []graph.NodeID) {
	bits := s.cached[dev]
	for i := range bits {
		bits[i] = 0
	}
	for _, v := range nodes {
		bits[v>>6] |= 1 << (uint(v) & 63)
	}
	s.cachedLists[dev] = nodes
	s.invalidateLoc()
}

// CachedList returns the configured cache list of dev.
func (s *Store) CachedList(dev int) []graph.NodeID { return s.cachedLists[dev] }

// QCachedList returns the configured int8 warm-tier list of dev.
func (s *Store) QCachedList(dev int) []graph.NodeID { return s.qcachedLists[dev] }

// ConfigureCacheTiered installs a two-tier cache for device dev: hot
// rows stay fp32, warm rows are quantized to int8 on admission (4x
// capacity per byte, lossy). Warm rows are quantized into the shared
// QFeats matrix — admission is idempotent, so devices overlapping
// warm sets agree on the quantized bytes. In accounting mode (nil
// Feats) only the placement bitsets are installed.
func (s *Store) ConfigureCacheTiered(dev int, hot, warm []graph.NodeID) {
	s.ConfigureCache(dev, hot)
	words := (s.numNodes + 63) / 64
	if s.qcached[dev] == nil {
		s.qcached[dev] = make([]uint64, words)
	}
	bits := s.qcached[dev]
	for i := range bits {
		bits[i] = 0
	}
	for _, v := range warm {
		bits[v>>6] |= 1 << (uint(v) & 63)
	}
	s.qcachedLists[dev] = warm
	s.invalidateLoc()
	if s.Feats == nil {
		return
	}
	if s.QFeats == nil {
		s.QFeats = tensor.NewQuant(s.numNodes, s.Dim)
	}
	for _, v := range warm {
		s.QFeats.QuantizeRow(int(v), s.Feats.Row(int(v)))
	}
}

// TierRows turns a per-device byte budget into row counts: int8Frac of
// the budget holds int8 rows, the remainder stays fp32. Quantized rows
// are charged at their actual byte size (row + scale/zero header), so
// the warm tier covers roughly 4x the nodes per byte. It is the one
// place the split is computed — admission and the re-planner's tier
// model both call it, so they cannot disagree by a row.
func TierRows(budget int64, int8Frac float64, loadDim int) (hot, warm int) {
	hotBudget := budget
	if int8Frac > 0 {
		warmBudget := int64(float64(budget) * int8Frac)
		hotBudget -= warmBudget
		warm = int(warmBudget / tensor.QuantRowBytes(loadDim))
	}
	if loadDim > 0 {
		hot = int(hotBudget / int64(4*loadDim))
	}
	return hot, warm
}

// Admit fills every device's cache under a byte budget: TierRows sizes
// the two bands at the store's LoadDim, cfg's policy ranks the rows
// (cfg.CapacityNodes and cfg.Devices are set here), and each device's
// lists are installed — tiered only when the warm band is non-empty,
// so a store without a tier never allocates the quantized matrix.
func (s *Store) Admit(cfg SelectConfig, budget int64, int8Frac float64) {
	hotRows, warmRows := TierRows(budget, int8Frac, s.LoadDim)
	cfg.CapacityNodes = hotRows
	cfg.Devices = s.Platform.NumDevices()
	if warmRows > 0 {
		hot, warm := SelectTiered(cfg, warmRows)
		for d := range hot {
			s.ConfigureCacheTiered(d, hot[d], warm[d])
		}
		return
	}
	for d, l := range Select(cfg) {
		s.ConfigureCache(d, l)
	}
}

// IsQCached reports whether dev holds v in its int8 warm tier.
func (s *Store) IsQCached(dev int, v graph.NodeID) bool {
	q := s.qcached[dev]
	return q != nil && q[v>>6]&(1<<(uint(v)&63)) != 0
}

// FeatView returns device dev's read view of the store: the master
// fp32 matrix plus, when a warm tier is configured, the device's int8
// rows. With no tier the view is the plain fp32 matrix and every
// kernel consuming it takes the bit-identical fp32 path.
func (s *Store) FeatView(dev int) tensor.FeatSource {
	src := tensor.FeatSource{F: s.Feats}
	if s.QFeats != nil && s.qcached[dev] != nil && len(s.qcachedLists[dev]) > 0 {
		src.Q = s.QFeats
		src.QMask = s.qcached[dev]
	}
	return src
}

// ConfigureCPUCache replicates the given nodes' features into machine
// m's CPU memory, so its GPUs read them locally instead of remotely.
func (s *Store) ConfigureCPUCache(m int, nodes []graph.NodeID) {
	if s.cpuCached == nil {
		s.cpuCached = make([][]uint64, s.Platform.Machines)
	}
	words := (s.numNodes + 63) / 64
	bits := make([]uint64, words)
	for _, v := range nodes {
		bits[v>>6] |= 1 << (uint(v) & 63)
	}
	s.cpuCached[m] = bits
	s.invalidateLoc()
}

// isCPUCached reports whether machine m replicates v.
func (s *Store) isCPUCached(m int, v graph.NodeID) bool {
	if s.cpuCached == nil || s.cpuCached[m] == nil {
		return false
	}
	return s.cpuCached[m][v>>6]&(1<<(uint(v)&63)) != 0
}

// IsCached reports whether dev caches v.
func (s *Store) IsCached(dev int, v graph.NodeID) bool {
	return s.cached[dev][v>>6]&(1<<(uint(v)&63)) != 0
}

// locate applies the paper's position rules for device dev reading v:
// own cache, then peer GPU (NVLink only), then local CPU, then remote.
// locTable calls it once per node to build the table loads read.
func (s *Store) locate(dev int, v graph.NodeID) Location {
	if s.IsCached(dev, v) {
		return LocGPU
	}
	if s.IsQCached(dev, v) {
		return LocGPUQ
	}
	if s.Platform.HasNVLink {
		m := s.Platform.MachineOf(dev)
		lo := m * s.Platform.GPUsPerMachine
		for d := lo; d < lo+s.Platform.GPUsPerMachine; d++ {
			if d != dev && s.IsCached(d, v) {
				return LocPeerGPU
			}
		}
	}
	m := s.Platform.MachineOf(dev)
	if int(s.HostMachine[v]) == m || s.isCPUCached(m, v) {
		return LocLocalCPU
	}
	return LocRemoteCPU
}

// LoadStats summarizes one Load call.
type LoadStats struct {
	// Nodes[loc] counts reads served by each location.
	Nodes [numLocations]int64
	// Bytes[loc] counts bytes moved from each location.
	Bytes [numLocations]int64
	// Seconds is the simulated time charged.
	Seconds float64
}

// Add merges o into st.
func (st *LoadStats) Add(o LoadStats) {
	for i := range st.Nodes {
		st.Nodes[i] += o.Nodes[i]
		st.Bytes[i] += o.Bytes[i]
	}
	st.Seconds += o.Seconds
}

// locLink maps a location to the platform link it uses.
func locLink(loc Location) hardware.LinkKind {
	switch loc {
	case LocGPU, LocGPUQ:
		return hardware.LinkGPUMem
	case LocPeerGPU:
		return hardware.LinkNVLink
	case LocLocalCPU:
		return hardware.LinkPCIe
	default:
		return hardware.LinkNetwork
	}
}

// VolumeOnly computes the load statistics for dev reading nodes
// without charging time or moving data — the dry-run path the planner
// uses to estimate T_load. Warm-tier reads are accounted at their
// quantized size (1 byte per element plus the 8-byte scale/zero
// pair), not the fp32 size — the int8 tier's whole point is that a
// hit moves a quarter of the bytes.
func (s *Store) VolumeOnly(dev int, nodes []graph.NodeID) LoadStats {
	var st LoadStats
	perNode := int64(4 * s.LoadDim)
	perNodeQ := tensor.QuantRowBytes(s.LoadDim)
	tab := s.locTable(dev)
	for _, v := range nodes {
		loc := Location(tab[v])
		st.Nodes[loc]++
		if loc == LocGPUQ {
			st.Bytes[loc] += perNodeQ
		} else {
			st.Bytes[loc] += perNode
		}
	}
	return st
}

// chargeTime converts accumulated volumes into simulated seconds on
// dev's clock (stage StageLoad) and returns the seconds.
func (s *Store) chargeTime(dev *device.Device, st *LoadStats) {
	p := s.Platform
	var t float64
	for loc := Location(0); loc < numLocations; loc++ {
		if st.Bytes[loc] == 0 {
			continue
		}
		kind := locLink(loc)
		conc := 1
		if kind == hardware.LinkNetwork {
			conc = p.GPUsPerMachine
		}
		t += p.TransferTime(kind, st.Bytes[loc], conc)
	}
	st.Seconds = t
	dev.Charge(device.StageLoad, t)
}

// Charge accounts for device dev reading nodes — location volumes plus
// simulated load time — without materializing a gathered copy. The
// gather-fused kernels read the master feature matrix through the node
// list directly, so a load is pure accounting.
func (s *Store) Charge(dev *device.Device, nodes []graph.NodeID) LoadStats {
	st := s.VolumeOnly(dev.ID, nodes)
	s.chargeTime(dev, &st)
	return st
}

// Load gathers the features of nodes for device dev, charging
// simulated load time. In accounting mode (nil master features) only
// statistics are produced and the returned matrix is nil.
func (s *Store) Load(dev *device.Device, nodes []graph.NodeID) (*tensor.Matrix, LoadStats) {
	st := s.VolumeOnly(dev.ID, nodes)
	s.chargeTime(dev, &st)
	if s.Feats == nil {
		return nil, st
	}
	return tensor.Gather(s.Feats, nodes), st
}
