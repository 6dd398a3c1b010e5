package cloud

import (
	"fmt"

	"perfcloud/internal/cluster"
)

// Topology sizes the zone→rack→server hierarchy the manager assigns
// servers into: consecutive provisioned servers fill a rack, consecutive
// racks fill a zone. The hierarchy carries incrementally-maintained
// placed-vCPU totals, so zone/rack load queries and zone-constrained
// placement never rescan VMs.
type Topology struct {
	ServersPerRack int // 0 = 40
	RacksPerZone   int // 0 = 8
}

// DefaultTopology returns the default hierarchy sizing: 40-server racks,
// 8-rack (320-server) zones.
func DefaultTopology() Topology { return Topology{ServersPerRack: 40, RacksPerZone: 8} }

func (t Topology) serversPerRack() int {
	if t.ServersPerRack <= 0 {
		return 40
	}
	return t.ServersPerRack
}

func (t Topology) racksPerZone() int {
	if t.RacksPerZone <= 0 {
		return 8
	}
	return t.RacksPerZone
}

// Zone is one availability zone: an ordered set of racks with a running
// placed-vCPU total.
type Zone struct {
	id     string
	placed float64
	racks  []*Rack
}

// ID returns the zone's identifier ("zone-<k>").
func (z *Zone) ID() string { return z.id }

// PlacedVCPUs returns the vCPUs currently placed across the zone.
func (z *Zone) PlacedVCPUs() float64 { return z.placed }

// Racks returns the zone's racks in creation order (a copy).
func (z *Zone) Racks() []*Rack { return append([]*Rack(nil), z.racks...) }

// NumServers returns the number of servers assigned to the zone.
// O(racks in the zone), cheap enough for per-sample telemetry.
func (z *Zone) NumServers() int {
	n := 0
	for _, r := range z.racks {
		n += len(r.servers)
	}
	return n
}

// Rack is one rack: an ordered set of servers with a running placed-vCPU
// total.
type Rack struct {
	id      string
	zone    *Zone
	placed  float64
	servers []*srvEntry
}

// ID returns the rack's identifier ("rack-<zone>-<k>").
func (r *Rack) ID() string { return r.id }

// Zone returns the zone containing the rack.
func (r *Rack) Zone() *Zone { return r.zone }

// PlacedVCPUs returns the vCPUs currently placed across the rack.
func (r *Rack) PlacedVCPUs() float64 { return r.placed }

// EachServer calls fn for every server in the rack in creation order.
func (r *Rack) EachServer(fn func(*cluster.Server)) {
	for _, e := range r.servers {
		fn(e.srv)
	}
}

// srvEntry is the manager's per-server index record: the incrementally
// maintained placed-vCPU total, the creation sequence used to break load
// ties exactly like the old linear scan did (first provisioned wins),
// the containing rack, and the entry's position in the load heap.
type srvEntry struct {
	srv     *cluster.Server
	seq     int
	placed  float64
	heapIdx int
	rack    *Rack
}

// entryLess orders entries by (placed vCPUs, creation sequence) — the
// strict total order under which the heap minimum reproduces the old
// "first server with strictly fewest placed vcpus" scan bit for bit.
func entryLess(a, b *srvEntry) bool {
	if a.placed != b.placed {
		return a.placed < b.placed
	}
	return a.seq < b.seq
}

// The load index is a hand-rolled indexed binary min-heap: each entry
// carries its own heap position, so a placed-vCPU change re-establishes
// heap order in O(log n) with heapFix instead of a rebuild, and Boot's
// least-loaded lookup is O(1) at the root.

func (m *Manager) heapSwap(i, j int) {
	m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
	m.heap[i].heapIdx = i
	m.heap[j].heapIdx = j
}

func (m *Manager) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(m.heap[i], m.heap[p]) {
			return
		}
		m.heapSwap(i, p)
		i = p
	}
}

func (m *Manager) siftDown(i int) {
	n := len(m.heap)
	for {
		small := i
		if l := 2*i + 1; l < n && entryLess(m.heap[l], m.heap[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && entryLess(m.heap[r], m.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		m.heapSwap(i, small)
		i = small
	}
}

func (m *Manager) heapPush(e *srvEntry) {
	e.heapIdx = len(m.heap)
	m.heap = append(m.heap, e)
	m.siftUp(e.heapIdx)
}

// heapFix restores heap order after e.placed changed in either direction.
func (m *Manager) heapFix(e *srvEntry) {
	m.siftUp(e.heapIdx)
	m.siftDown(e.heapIdx)
}

// leastLoaded returns the globally least-loaded server's entry (heap
// root), or nil with no servers provisioned.
func (m *Manager) leastLoaded() *srvEntry {
	if len(m.heap) == 0 {
		return nil
	}
	return m.heap[0]
}

// leastLoadedExcluding returns the least-loaded entry whose server is
// not src. The second-smallest element of a binary min-heap is one of
// the root's children, so excluding the root costs two comparisons, not
// a scan.
func (m *Manager) leastLoadedExcluding(src *cluster.Server) *srvEntry {
	if len(m.heap) == 0 {
		return nil
	}
	if m.heap[0].srv != src {
		return m.heap[0]
	}
	if len(m.heap) == 1 {
		return nil
	}
	best := m.heap[1]
	if len(m.heap) > 2 && entryLess(m.heap[2], best) {
		best = m.heap[2]
	}
	return best
}

// leastLoadedInZone returns the least-loaded entry within the named
// zone, or nil if the zone is unknown or empty. O(zone size) — zone
// placement is a constrained query the global heap cannot answer.
func (m *Manager) leastLoadedInZone(zoneID string) *srvEntry {
	var best *srvEntry
	for _, z := range m.zones {
		if z.id != zoneID {
			continue
		}
		for _, r := range z.racks {
			for _, e := range r.servers {
				if best == nil || entryLess(e, best) {
					best = e
				}
			}
		}
	}
	return best
}

// indexServer adds a freshly provisioned (or re-discovered) server to
// the load index and the topology, folding any VMs already placed on it
// into the totals.
func (m *Manager) indexServer(s *cluster.Server) {
	e := &srvEntry{srv: s, seq: m.seq}
	m.seq++
	s.EachVM(func(v *cluster.VM) { e.placed += v.VCPUs() })
	m.assignRack(e)
	e.rack.placed += e.placed
	e.rack.zone.placed += e.placed
	m.entries[s.ID()] = e
	m.heapPush(e)
}

// assignRack slots an entry into the zone→rack grid by its creation
// sequence: rack seq/ServersPerRack, zone rack/RacksPerZone, creating
// levels on demand.
func (m *Manager) assignRack(e *srvEntry) {
	rackIdx := e.seq / m.topo.serversPerRack()
	zoneIdx := rackIdx / m.topo.racksPerZone()
	for len(m.zones) <= zoneIdx {
		m.zones = append(m.zones, &Zone{id: fmt.Sprintf("zone-%d", len(m.zones))})
	}
	z := m.zones[zoneIdx]
	local := rackIdx % m.topo.racksPerZone()
	for len(z.racks) <= local {
		z.racks = append(z.racks, &Rack{id: fmt.Sprintf("rack-%d-%d", zoneIdx, len(z.racks)), zone: z})
	}
	e.rack = z.racks[local]
	e.rack.servers = append(e.rack.servers, e)
}

// addPlaced applies a placed-vCPU delta to a server entry and its rack
// and zone totals, and re-establishes the heap order.
func (m *Manager) addPlaced(e *srvEntry, delta float64) {
	e.placed += delta
	e.rack.placed += delta
	e.rack.zone.placed += delta
	m.heapFix(e)
}

// rebuild re-derives the whole index — entries, heap, topology and
// totals — from the cluster's current state. Run at construction and
// whenever the cluster's placement sequence shows out-of-band mutations
// (tests adding VMs through cluster.AddVM directly); manager-mediated
// changes keep the index current incrementally and never pay this.
func (m *Manager) rebuild() {
	m.entries = make(map[string]*srvEntry, m.cluster.NumServers())
	m.heap = m.heap[:0]
	m.zones = nil
	m.seq = 0
	m.cluster.EachServer(func(s *cluster.Server) { m.indexServer(s) })
	m.syncedSeq = m.cluster.PlacementSeq()
}

// syncIndex revalidates the index against the cluster before any use.
func (m *Manager) syncIndex() {
	if m.entries == nil || m.syncedSeq != m.cluster.PlacementSeq() {
		m.rebuild()
	}
}

// SetTopology replaces the hierarchy sizing and re-assigns every server
// to its zone and rack. Call it before provisioning for the intended
// layout; calling later relabels existing servers in creation order.
func (m *Manager) SetTopology(t Topology) {
	m.topo = t
	m.rebuild()
}

// Topology returns the hierarchy sizing in effect.
func (m *Manager) Topology() Topology { return m.topo }

// Zones returns the zones in creation order (a copy).
func (m *Manager) Zones() []*Zone {
	m.syncIndex()
	return append([]*Zone(nil), m.zones...)
}

// EachZone calls fn for every zone in creation order without copying —
// the key fleet telemetry aggregates the top level under.
func (m *Manager) EachZone(fn func(*Zone)) {
	m.syncIndex()
	for _, z := range m.zones {
		fn(z)
	}
}

// ServerLocation returns the zone and rack ids hosting the given server.
func (m *Manager) ServerLocation(serverID string) (zone, rack string, ok bool) {
	m.syncIndex()
	e := m.entries[serverID]
	if e == nil {
		return "", "", false
	}
	return e.rack.zone.id, e.rack.id, true
}

// PlacedVCPUs returns the manager's incrementally maintained placed-vCPU
// total for a server.
func (m *Manager) PlacedVCPUs(serverID string) (float64, bool) {
	m.syncIndex()
	e := m.entries[serverID]
	if e == nil {
		return 0, false
	}
	return e.placed, true
}
