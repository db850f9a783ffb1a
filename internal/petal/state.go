package petal

import (
	"sort"

	"frangipani/internal/paxos"
)

// Command is a Petal global-state command, decided through Paxos and
// applied deterministically on every server.
type Command any

// Global-state commands.
type (
	// CmdCreateVDisk creates an empty writable virtual disk.
	CmdCreateVDisk struct{ ID VDiskID }
	// CmdDeleteVDisk removes a virtual disk (and its snapshots' view
	// of it remains until they are deleted too; chunk GC is lazy).
	CmdDeleteVDisk struct{ ID VDiskID }
	// CmdSnapshot creates a read-only snapshot of Parent as Snap,
	// freezing Parent's current epoch and advancing it.
	CmdSnapshot struct {
		Parent VDiskID
		Snap   VDiskID
	}
)

// VDiskMeta describes one virtual disk in the directory.
type VDiskMeta struct {
	ID       VDiskID
	Epoch    int64 // current write epoch
	ReadOnly bool
	// For snapshots: the disk whose chunks are read, and the epoch
	// ceiling frozen at snapshot time.
	Parent     VDiskID
	Parentance int64 // highest epoch visible to this snapshot
}

// GlobalState is the Paxos-replicated directory: the fixed server
// list, per-server liveness, and the virtual-disk table. It is a
// plain value; Clone before mutating a copy.
type GlobalState struct {
	Servers []string
	Alive   map[string]bool
	VDisks  map[VDiskID]VDiskMeta
	Version int64 // bumps on every applied command
}

// NewGlobalState returns the initial state: all servers alive, no
// virtual disks.
func NewGlobalState(servers []string) GlobalState {
	alive := make(map[string]bool, len(servers))
	for _, s := range servers {
		alive[s] = true
	}
	sorted := append([]string(nil), servers...)
	sort.Strings(sorted)
	return GlobalState{
		Servers: sorted,
		Alive:   alive,
		VDisks:  make(map[VDiskID]VDiskMeta),
	}
}

// Clone returns a deep copy.
func (g GlobalState) Clone() GlobalState {
	out := g
	out.Servers = append([]string(nil), g.Servers...)
	out.Alive = make(map[string]bool, len(g.Alive))
	for k, v := range g.Alive {
		out.Alive[k] = v
	}
	out.VDisks = make(map[VDiskID]VDiskMeta, len(g.VDisks))
	for k, v := range g.VDisks {
		out.VDisks[k] = v
	}
	return out
}

// Apply executes one command, returning an error string for commands
// that are no-ops (already satisfied) or invalid. Apply must stay
// deterministic: it is run independently on every server.
func (g *GlobalState) Apply(cmd Command) error {
	g.Version++
	switch c := cmd.(type) {
	case CmdCreateVDisk:
		if _, ok := g.VDisks[c.ID]; ok {
			return ErrVDiskExists
		}
		g.VDisks[c.ID] = VDiskMeta{ID: c.ID, Epoch: 1}
	case CmdDeleteVDisk:
		if _, ok := g.VDisks[c.ID]; !ok {
			return ErrNoSuchVDisk
		}
		delete(g.VDisks, c.ID)
	case CmdSnapshot:
		parent, ok := g.VDisks[c.Parent]
		if !ok {
			return ErrNoSuchVDisk
		}
		if parent.ReadOnly {
			return ErrReadOnly
		}
		if _, ok := g.VDisks[c.Snap]; ok {
			return ErrVDiskExists
		}
		base := c.Parent
		if parent.Parent != "" {
			base = parent.Parent
		}
		g.VDisks[c.Snap] = VDiskMeta{
			ID:         c.Snap,
			ReadOnly:   true,
			Parent:     base,
			Parentance: parent.Epoch,
		}
		parent.Epoch++
		g.VDisks[c.Parent] = parent
	case paxos.SetAlive:
		// Placement never changes, but clients and replicas route
		// around a server that is not alive.
		if _, ok := g.Alive[c.Server]; ok {
			g.Alive[c.Server] = c.Alive
		}
	}
	return nil
}

// Replicas returns the two servers holding a chunk: the primary is the
// server an FNV hash of the (base) virtual disk and chunk picks, mod the
// size of the fixed server list, and the backup is the next server in
// the list. Placement is independent of liveness so that it never
// silently changes under failures; the missed-write sets handle
// divergence instead.
func (g *GlobalState) Replicas(v VDiskID, chunk int64) (primary, backup string) {
	n := len(g.Servers)
	if n == 0 {
		return "", ""
	}
	// Snapshot chunks live where the parent's chunks live.
	base := v
	if m, ok := g.VDisks[v]; ok && m.Parent != "" {
		base = m.Parent
	}
	i := int(fnv64(base, chunk) % uint64(n))
	if n == 1 {
		return g.Servers[i], ""
	}
	return g.Servers[i], g.Servers[(i+1)%n]
}

// resolve maps a vdisk to the (base vdisk, epoch ceiling, writable)
// triple used by the storage layer. For an ordinary disk the ceiling
// is its current epoch; for a snapshot it is the frozen epoch of its
// parent.
func (g *GlobalState) resolve(v VDiskID) (base VDiskID, ceiling int64, writable bool, err error) {
	m, ok := g.VDisks[v]
	if !ok {
		return "", 0, false, ErrNoSuchVDisk
	}
	if m.ReadOnly {
		return m.Parent, m.Parentance, false, nil
	}
	return m.ID, m.Epoch, true, nil
}
