package sim

// sectorTree holds ordered sets of sector indices — the NVRAM card's
// two destage queues — as treaps whose nodes share one slice and are
// reused through a free list of indices, so that a warm tree allocates
// nothing. Sectors come and go in ranges, a staged write's and a destage
// run's: adding or cutting k of them costs O(log n + k). A set is named
// by its root, which the caller keeps; node 0 is the empty tree.
type sectorTree struct {
	nodes []treeNode
	free  []int32
	stack []int32 // addRange's and cut's scratch
	seed  uint32  // xorshift state for the nodes' priorities
}

type treeNode struct {
	sector      int64
	prio        uint32
	left, right int32
}

// addRange puts the sectors [from, to), none of which the set at root
// holds, into it: they are built into a treap of their own in order (a
// Cartesian tree, on a stack) and merged in where they belong.
func (t *sectorTree) addRange(root *int32, from, to int64) {
	t.stack = t.stack[:0]
	for s := from; s < to; s++ {
		x, last := t.node(s), int32(0)
		for k := len(t.stack); k > 0 && t.nodes[t.stack[k-1]].prio < t.nodes[x].prio; k-- {
			last, t.stack = t.stack[k-1], t.stack[:k-1]
		}
		t.nodes[x].left = last
		if k := len(t.stack); k > 0 {
			t.nodes[t.stack[k-1]].right = x
		}
		t.stack = append(t.stack, x)
	}
	if len(t.stack) == 0 {
		return
	}
	l, r := t.split(*root, from)
	*root = t.merge(t.merge(l, t.stack[0]), r)
}

// cut takes the sectors [from, to) out of the set at root.
func (t *sectorTree) cut(root *int32, from, to int64) {
	l, r := t.split(*root, from)
	m, r := t.split(r, to)
	*root = t.merge(l, r)
	for t.stack = append(t.stack[:0], m); len(t.stack) > 0; {
		x := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if x != 0 {
			t.stack = append(t.stack, t.nodes[x].left, t.nodes[x].right)
			t.free = append(t.free, x)
		}
	}
}

// ceil returns the least sector of the set at root that is at or after
// sector.
func (t *sectorTree) ceil(root int32, sector int64) (int64, bool) {
	best, ok := int64(0), false
	for x := root; x != 0; {
		if n := &t.nodes[x]; n.sector >= sector {
			best, ok = n.sector, true
			x = n.left
		} else {
			x = n.right
		}
	}
	return best, ok
}

// node takes a node for sector from the free list, growing the slice
// if it is empty.
func (t *sectorTree) node(sector int64) int32 {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, treeNode{}) // the empty tree
		t.seed = 2463534242
	}
	t.seed ^= t.seed << 13
	t.seed ^= t.seed >> 17
	t.seed ^= t.seed << 5
	n := treeNode{sector: sector, prio: t.seed}
	if k := len(t.free); k > 0 {
		x := t.free[k-1]
		t.free = t.free[:k-1]
		t.nodes[x] = n
		return x
	}
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

// split cuts the tree x into the sectors below sector and the rest.
func (t *sectorTree) split(x int32, sector int64) (below, rest int32) {
	if x == 0 {
		return 0, 0
	}
	if t.nodes[x].sector < sector {
		t.nodes[x].right, rest = t.split(t.nodes[x].right, sector)
		return x, rest
	}
	below, t.nodes[x].left = t.split(t.nodes[x].left, sector)
	return below, x
}

// merge joins l and r, every sector of l below every sector of r.
func (t *sectorTree) merge(l, r int32) int32 {
	switch {
	case l == 0:
		return r
	case r == 0:
		return l
	case t.nodes[l].prio > t.nodes[r].prio:
		t.nodes[l].right = t.merge(t.nodes[l].right, r)
		return l
	default:
		t.nodes[r].left = t.merge(l, t.nodes[r].left)
		return r
	}
}
