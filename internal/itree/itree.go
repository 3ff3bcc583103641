// Package itree implements the balanced search tree the paper's new
// insertion algorithm stores memory accesses in (§4.2: "searches,
// insertions and deletions ... are logarithmic in time as we use a
// (balanced) BST").
//
// The tree is a B-tree of minimum degree 8 keyed by interval lower
// bound: every node holds up to 15 accesses inline, so a search touches
// a few wide nodes instead of a chain of one-access nodes. It is
// augmented with the maximum upper bound of each subtree, kept both on
// the node and, for internal nodes, in a per-child kidMax array, so a
// stabbing query ("all stored accesses intersecting a given interval")
// skips a child without loading it and visits O(log n + k) nodes. Under
// Algorithm 1 the stored intervals are always pairwise disjoint, which
// makes lower bounds unique keys; the tree nevertheless tolerates equal
// lower bounds and identical intervals (ordering by upper bound) so it
// can be exercised and property-tested independently of the detector's
// invariants.
package itree

import (
	"rmarace/internal/access"
	"rmarace/internal/interval"
)

const (
	// degree is the B-tree's minimum degree t: every node but the root
	// holds between degree-1 and 2*degree-1 accesses. 8 measured a few
	// percent faster than 4 or 16 on the many-owner replay.
	degree   = 8
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// node is one B-tree node. items[:n] are its accesses in interval
// order; an internal node has n+1 children, kids[i] holding the
// accesses ordered between items[i-1] and items[i].
type node struct {
	n      int
	leaf   bool
	maxHi  uint64 // max interval.Hi in this subtree
	items  [maxItems]access.Access
	kids   [maxItems + 1]*node
	kidMax [maxItems + 1]uint64 // kidMax[i] == kids[i].maxHi
}

// Tree is a B-tree interval multiset of memory accesses. The zero
// value is an empty tree ready to use. Tree is not safe for concurrent
// use; in the detector each window's tree is owned by a single receiver
// goroutine, matching the paper's per-window analysis thread.
//
// Nodes emptied by deletion and Clear are kept on a per-tree free list
// (chained through kids[0]) and reused by later insertions, so the
// steady-state insert/delete cycle of Algorithm 1 — and the per-epoch
// Clear — allocates nothing once the tree has reached its high-water
// size. A plain free list beats a sync.Pool here: the tree is single-
// owner, so there is no synchronisation to pay for, and nodes never
// migrate between analyzers.
type Tree struct {
	root *node
	size int
	// nodes counts the nodes linked into the tree; peak is its
	// high-water mark since the last ReleaseFree.
	nodes, peak int
	// free heads the recycled-node list; freeN bounds its length so a
	// one-off spike does not pin memory forever.
	free  *node
	freeN int
	// nb is StabNeighbors' reusable query state. Keeping it on the
	// (heap-resident, single-owner) tree instead of in locals whose
	// addresses are passed down the recursion keeps the hot path free
	// of escape-forced allocations.
	nb nbQuery
}

// nbQuery carries one StabNeighbors traversal's inputs and results.
type nbQuery struct {
	iv, wide    interval.Interval
	dst         *[]access.Access
	left, right access.Access
	hasLeft     bool
	hasRight    bool
}

// maxFree caps the free list (about 10 MB of nodes); beyond it nodes
// are released to the GC.
const maxFree = 1 << 13

// newNode takes a node from the free list, or allocates one.
func (t *Tree) newNode(leaf bool) *node {
	x := t.free
	if x == nil {
		x = &node{}
	} else {
		t.free = x.kids[0]
		t.freeN--
		x.kids[0] = nil
	}
	x.leaf = leaf
	t.nodes++
	if t.nodes > t.peak {
		t.peak = t.nodes
	}
	return x
}

// recycle clears an unlinked node and pushes it onto the free list.
func (t *Tree) recycle(x *node) {
	t.nodes--
	if t.freeN >= maxFree {
		return
	}
	*x = node{}
	x.kids[0] = t.free
	t.free = x
	t.freeN++
}

// Len returns the number of stored accesses — the "number of nodes in
// the BST" reported in Table 4 and §5.3.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels of the tree (0 for an empty
// tree).
func (t *Tree) Height() int {
	h := 0
	for x := t.root; x != nil; x = x.kids[0] {
		h++
	}
	return h
}

// calcMax recomputes x.maxHi from its items and children.
func (x *node) calcMax() {
	var m uint64
	for i := range x.items[:x.n] {
		m = max(m, x.items[i].Hi)
	}
	if !x.leaf {
		for _, k := range x.kidMax[:x.n+1] {
			m = max(m, k)
		}
	}
	x.maxHi = m
}

// lowerBound returns the first index whose item is not below iv.
func (x *node) lowerBound(iv interval.Interval) int {
	lo, hi := 0, x.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x.items[m].Interval.Compare(iv) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// upperBound returns the first index whose item is above iv, so equal
// intervals insert after the ones already stored.
func (x *node) upperBound(iv interval.Interval) int {
	lo, hi := 0, x.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x.items[m].Interval.Compare(iv) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Insert adds acc to the tree. Accesses with identical intervals are
// both kept (the tree is a multiset, like the std::multiset RMA-Analyzer
// uses); the detector's disjointness invariant makes this case
// unreachable in normal operation.
func (t *Tree) Insert(acc access.Access) {
	t.size++
	if t.root == nil {
		t.root = t.newNode(true)
	}
	if t.root.n == maxItems {
		old := t.root
		t.root = t.newNode(false)
		t.root.kids[0] = old
		t.root.kidMax[0] = old.maxHi
		t.root.maxHi = old.maxHi
		t.splitChild(t.root, 0)
	}
	// Top-down: every node on the path has room, so the access lands in
	// a leaf without any split propagating back up.
	x := t.root
	for {
		x.maxHi = max(x.maxHi, acc.Hi)
		i := x.upperBound(acc.Interval)
		if x.leaf {
			copy(x.items[i+1:x.n+1], x.items[i:x.n])
			x.items[i] = acc
			x.n++
			return
		}
		if x.kids[i].n == maxItems {
			t.splitChild(x, i)
			if x.items[i].Interval.Compare(acc.Interval) <= 0 {
				i++
			}
		}
		x.kidMax[i] = max(x.kidMax[i], acc.Hi)
		x = x.kids[i]
	}
}

// splitChild splits p's full child i around its median, which moves up
// into p. p must not be full.
func (t *Tree) splitChild(p *node, i int) {
	y := p.kids[i]
	z := t.newNode(y.leaf)
	z.n = minItems
	copy(z.items[:minItems], y.items[degree:])
	if !y.leaf {
		copy(z.kids[:degree], y.kids[degree:])
		copy(z.kidMax[:degree], y.kidMax[degree:])
		clear(y.kids[degree:])
	}
	med := y.items[minItems]
	clear(y.items[minItems:])
	y.n = minItems
	y.calcMax()
	z.calcMax()

	copy(p.items[i+1:p.n+1], p.items[i:p.n])
	copy(p.kids[i+2:p.n+2], p.kids[i+1:p.n+1])
	copy(p.kidMax[i+2:p.n+2], p.kidMax[i+1:p.n+1])
	p.items[i] = med
	p.kids[i+1] = z
	p.kidMax[i] = y.maxHi
	p.kidMax[i+1] = z.maxHi
	p.n++
}

// Delete removes the stored access whose interval equals iv and reports
// whether such an access existed. When several accesses share the
// interval an arbitrary one is removed.
func (t *Tree) Delete(iv interval.Interval) bool {
	if t.root == nil {
		return false
	}
	_, ok := t.remove(t.root, iv)
	if ok {
		t.size--
	}
	t.collapseRoot()
	return ok
}

// collapseRoot drops an emptied root: the tree shrinks by one level, or
// becomes empty.
func (t *Tree) collapseRoot() {
	if r := t.root; r.n == 0 {
		if r.leaf {
			t.root = nil
		} else {
			t.root = r.kids[0]
		}
		t.recycle(r)
	}
}

// remove deletes one access whose interval equals iv from x's subtree
// and returns it. Deletion is top-down: x is the root or holds at least
// degree accesses, so a removal from it never underflows.
func (t *Tree) remove(x *node, iv interval.Interval) (access.Access, bool) {
	i := x.lowerBound(iv)
	var out access.Access
	switch {
	case i < x.n && x.items[i].Interval == iv:
		out = x.items[i]
		switch {
		case x.leaf:
			x.removeItem(i)
		case x.kids[i].n >= degree:
			x.items[i] = t.removeEdge(x.kids[i], true)
			x.kidMax[i] = x.kids[i].maxHi
		case x.kids[i+1].n >= degree:
			x.items[i] = t.removeEdge(x.kids[i+1], false)
			x.kidMax[i+1] = x.kids[i+1].maxHi
		default:
			// Both neighbours are minimal: merge them around the
			// access and delete it from the merged child.
			t.merge(x, i)
			out, _ = t.remove(x.kids[i], iv)
			x.kidMax[i] = x.kids[i].maxHi
		}
	case x.leaf:
		return out, false
	default:
		i = t.fill(x, i)
		var ok bool
		if out, ok = t.remove(x.kids[i], iv); !ok {
			return out, false
		}
		x.kidMax[i] = x.kids[i].maxHi
	}
	if out.Hi >= x.maxHi {
		x.calcMax()
	}
	return out, true
}

// removeEdge deletes and returns the last (or, unless last, the
// first) access of x's subtree; x holds at least degree accesses.
func (t *Tree) removeEdge(x *node, last bool) access.Access {
	var out access.Access
	switch {
	case x.leaf && last:
		out = x.items[x.n-1]
		x.removeItem(x.n - 1)
	case x.leaf:
		out = x.items[0]
		x.removeItem(0)
	default:
		i := 0
		if last {
			i = x.n
		}
		i = t.fill(x, i)
		out = t.removeEdge(x.kids[i], last)
		x.kidMax[i] = x.kids[i].maxHi
	}
	if out.Hi >= x.maxHi {
		x.calcMax()
	}
	return out
}

// removeItem drops item i of a leaf; the caller refreshes the maximum.
func (x *node) removeItem(i int) {
	copy(x.items[i:x.n-1], x.items[i+1:x.n])
	x.n--
	x.items[x.n] = access.Access{}
}

// fill makes sure x's child i holds at least degree accesses before the
// deletion descends into it, borrowing one from a sibling that can
// spare it or merging with a minimal sibling. It returns the index the
// child's accesses ended up at (a merge with the left sibling moves
// them one slot left). x's own subtree keeps the same accesses, so its
// maximum is unchanged.
func (t *Tree) fill(x *node, i int) int {
	switch {
	case x.kids[i].n >= degree:
		return i
	case i > 0 && x.kids[i-1].n >= degree:
		x.borrowLeft(i)
		return i
	case i < x.n && x.kids[i+1].n >= degree:
		x.borrowRight(i)
		return i
	case i < x.n:
		t.merge(x, i)
		return i
	default:
		t.merge(x, i-1)
		return i - 1
	}
}

// borrowLeft rotates one access from child i-1 through the separator
// into child i.
func (x *node) borrowLeft(i int) {
	c, l := x.kids[i], x.kids[i-1]
	copy(c.items[1:c.n+1], c.items[:c.n])
	c.items[0] = x.items[i-1]
	c.maxHi = max(c.maxHi, c.items[0].Hi)
	if !c.leaf {
		copy(c.kids[1:c.n+2], c.kids[:c.n+1])
		copy(c.kidMax[1:c.n+2], c.kidMax[:c.n+1])
		c.kids[0], c.kidMax[0] = l.kids[l.n], l.kidMax[l.n]
		l.kids[l.n], l.kidMax[l.n] = nil, 0
		c.maxHi = max(c.maxHi, c.kidMax[0])
	}
	c.n++
	x.items[i-1] = l.items[l.n-1]
	l.n--
	l.items[l.n] = access.Access{}
	l.calcMax()
	x.kidMax[i-1], x.kidMax[i] = l.maxHi, c.maxHi
}

// borrowRight rotates one access from child i+1 through the separator
// into child i.
func (x *node) borrowRight(i int) {
	c, r := x.kids[i], x.kids[i+1]
	c.items[c.n] = x.items[i]
	c.maxHi = max(c.maxHi, c.items[c.n].Hi)
	if !c.leaf {
		c.kids[c.n+1], c.kidMax[c.n+1] = r.kids[0], r.kidMax[0]
		c.maxHi = max(c.maxHi, c.kidMax[c.n+1])
		copy(r.kids[:r.n], r.kids[1:r.n+1])
		copy(r.kidMax[:r.n], r.kidMax[1:r.n+1])
		r.kids[r.n], r.kidMax[r.n] = nil, 0
	}
	c.n++
	x.items[i] = r.items[0]
	copy(r.items[:r.n-1], r.items[1:r.n])
	r.n--
	r.items[r.n] = access.Access{}
	r.calcMax()
	x.kidMax[i], x.kidMax[i+1] = c.maxHi, r.maxHi
}

// merge folds separator i and child i+1 into child i; both children are
// minimal, so the result holds exactly maxItems accesses.
func (t *Tree) merge(x *node, i int) {
	y, z := x.kids[i], x.kids[i+1]
	y.items[y.n] = x.items[i]
	copy(y.items[y.n+1:], z.items[:z.n])
	if !y.leaf {
		copy(y.kids[y.n+1:], z.kids[:z.n+1])
		copy(y.kidMax[y.n+1:], z.kidMax[:z.n+1])
	}
	y.n += 1 + z.n
	y.maxHi = max(y.maxHi, x.items[i].Hi, z.maxHi)

	copy(x.items[i:x.n-1], x.items[i+1:x.n])
	copy(x.kids[i+1:x.n], x.kids[i+2:x.n+1])
	copy(x.kidMax[i+1:x.n], x.kidMax[i+2:x.n+1])
	x.n--
	x.items[x.n] = access.Access{}
	x.kids[x.n+1], x.kidMax[x.n+1] = nil, 0
	x.kidMax[i] = y.maxHi
	t.recycle(z)
}

// ExtendHi grows the upper bound of the stored access whose interval
// equals iv to newHi, in place, and reports whether the access was
// found. Under the disjointness invariant the extension cannot cross
// the successor's interval, so the access's slot stays valid; only the
// max-upper-bound augmentation is raised along the search path.
func (t *Tree) ExtendHi(iv interval.Interval, newHi uint64) bool {
	if newHi < iv.Hi {
		return false
	}
	return t.root != nil && extend(t.root, iv, iv.Lo, newHi)
}

// ExtendLo lowers the lower bound of the stored access whose interval
// equals iv to newLo, in place. Under the disjointness invariant the
// extension cannot cross the predecessor's interval, so the ordering by
// lower bound is preserved.
func (t *Tree) ExtendLo(iv interval.Interval, newLo uint64) bool {
	if newLo > iv.Lo {
		return false
	}
	return t.root != nil && extend(t.root, iv, newLo, iv.Hi)
}

// extend rebounds the access whose interval equals iv in x's subtree
// to [lo, hi], which contains iv, raising the maxima on the path.
func extend(x *node, iv interval.Interval, lo, hi uint64) bool {
	i := x.lowerBound(iv)
	switch {
	case i < x.n && x.items[i].Interval == iv:
		x.items[i].Lo, x.items[i].Hi = lo, hi
	case x.leaf || !extend(x.kids[i], iv, lo, hi):
		return false
	default:
		x.kidMax[i] = max(x.kidMax[i], hi)
	}
	x.maxHi = max(x.maxHi, hi)
	return true
}

// Stab returns all stored accesses whose intervals intersect iv, in
// ascending interval order. This is get_intersecting_accesses of
// Algorithm 1.
func (t *Tree) Stab(iv interval.Interval) []access.Access {
	var out []access.Access
	t.VisitStab(iv, func(a access.Access) bool {
		out = append(out, a)
		return true
	})
	return out
}

// VisitStab calls fn for each stored access intersecting iv in ascending
// interval order, stopping early if fn returns false. It reports whether
// the visit ran to completion.
func (t *Tree) VisitStab(iv interval.Interval, fn func(access.Access) bool) bool {
	if t.root == nil || t.root.maxHi < iv.Lo {
		return true
	}
	return visitStab(t.root, iv, fn)
}

// visitStab walks x's subtree in order. Children whose maximum upper
// bound falls short of iv are skipped without being loaded, and the
// walk ends at the first access starting after iv: everything ordered
// after it starts later still.
func visitStab(x *node, iv interval.Interval, fn func(access.Access) bool) bool {
	for i := 0; i < x.n; i++ {
		if !x.leaf && x.kidMax[i] >= iv.Lo && !visitStab(x.kids[i], iv, fn) {
			return false
		}
		a := &x.items[i]
		if a.Lo > iv.Hi {
			return true
		}
		if a.Hi >= iv.Lo && !fn(*a) {
			return false
		}
	}
	if !x.leaf && x.kidMax[x.n] >= iv.Lo {
		return visitStab(x.kids[x.n], iv, fn)
	}
	return true
}

// StabNeighbors appends to *dst every stored access intersecting iv
// and returns the immediate boundary neighbours — the stored accesses
// ending exactly at iv.Lo-1 and starting exactly at iv.Hi+1 — when they
// exist. It is the allocation-free workhorse of the contribution's
// insertion hot path: one traversal yields everything Algorithm 1 needs
// (the race check, the fragmentation input and the merge candidates).
// dst's contents are only valid under the disjointness invariant.
func (t *Tree) StabNeighbors(iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool) {
	wide := iv
	if wide.Lo > 0 {
		wide.Lo--
	}
	if wide.Hi+1 != 0 {
		wide.Hi++
	}
	q := &t.nb
	q.iv, q.wide, q.dst = iv, wide, dst
	q.hasLeft, q.hasRight = false, false
	if t.root != nil && t.root.maxHi >= wide.Lo {
		q.stab(t.root)
	}
	q.dst = nil
	return q.left, q.right, q.hasLeft, q.hasRight
}

// stab is visitStab over the widened interval, sorting each hit into
// the left neighbour, the right neighbour or the intersecting set. It
// reports whether the walk must go on.
func (q *nbQuery) stab(x *node) bool {
	for i := 0; i < x.n; i++ {
		if !x.leaf && x.kidMax[i] >= q.wide.Lo && !q.stab(x.kids[i]) {
			return false
		}
		a := &x.items[i]
		if a.Lo > q.wide.Hi {
			return false
		}
		if a.Hi >= q.wide.Lo {
			switch {
			case a.Hi < q.iv.Lo:
				q.left = *a
				q.hasLeft = true
			case a.Lo > q.iv.Hi:
				q.right = *a
				q.hasRight = true
			default:
				*q.dst = append(*q.dst, *a)
			}
		}
	}
	if !x.leaf && x.kidMax[x.n] >= q.wide.Lo {
		return q.stab(x.kids[x.n])
	}
	return true
}

// FindAt returns the stored access covering addr, if any. Under the
// disjointness invariant there is at most one.
func (t *Tree) FindAt(addr uint64) (access.Access, bool) {
	var found access.Access
	ok := !t.VisitStab(interval.At(addr), func(a access.Access) bool {
		found = a
		return false
	})
	return found, ok
}

// InOrder calls fn for every stored access in ascending interval order,
// stopping early if fn returns false.
func (t *Tree) InOrder(fn func(access.Access) bool) {
	if t.root != nil {
		inOrder(t.root, fn)
	}
}

func inOrder(x *node, fn func(access.Access) bool) bool {
	for i := 0; i < x.n; i++ {
		if !x.leaf && !inOrder(x.kids[i], fn) {
			return false
		}
		if !fn(x.items[i]) {
			return false
		}
	}
	return x.leaf || inOrder(x.kids[x.n], fn)
}

// Items returns all stored accesses in ascending interval order.
func (t *Tree) Items() []access.Access {
	out := make([]access.Access, 0, t.size)
	t.InOrder(func(a access.Access) bool {
		out = append(out, a)
		return true
	})
	return out
}

// Clear empties the tree, as RMA-Analyzer does at the end of an epoch,
// reclaiming every node onto the free list so the next epoch's
// insertions allocate nothing.
func (t *Tree) Clear() {
	if t.root != nil {
		t.reclaim(t.root)
	}
	t.root = nil
	t.size = 0
}

func (t *Tree) reclaim(x *node) {
	if !x.leaf {
		for _, k := range x.kids[:x.n+1] {
			t.reclaim(k)
		}
	}
	t.recycle(x)
}

// ReleaseFree trims the recycled-node free list so that the tree's
// live and free nodes together number no more than the tree used at
// its high-water mark since the previous ReleaseFree, handing the rest
// to the GC, and starts a new high-water period. The free list exists
// only to make the steady-state insert/delete cycle allocation-free;
// trimming it never touches live tree state, so it is safe at any
// point. The bounded-memory trace replay calls it at epoch boundaries
// (via store.Compact): a hot tree that refills to the same size every
// epoch keeps exactly the nodes it needs and refills without
// allocating, while a tree that went a whole period without growing
// past its live size (a cold owner, emptied by Clear) releases every
// free node.
func (t *Tree) ReleaseFree() {
	keep := t.peak - t.nodes
	for t.freeN > keep {
		x := t.free
		t.free = x.kids[0]
		x.kids[0] = nil
		t.freeN--
	}
	t.peak = t.nodes
}
