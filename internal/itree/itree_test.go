package itree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/interval"
)

func acc(lo, hi uint64) access.Access {
	return access.Access{Interval: interval.New(lo, hi), Type: access.RMARead}
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("zero tree: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Stab(interval.New(0, 100)); len(got) != 0 {
		t.Fatalf("stab on empty tree returned %v", got)
	}
	if tr.Delete(interval.At(3)) {
		t.Fatal("delete on empty tree reported success")
	}
	if _, ok := tr.FindAt(0); ok {
		t.Fatal("FindAt on empty tree reported a hit")
	}
}

func TestInsertAndStab(t *testing.T) {
	var tr Tree
	tr.Insert(acc(2, 12))
	tr.Insert(acc(20, 25))
	tr.Insert(acc(14, 15))

	got := tr.Stab(interval.At(7))
	if len(got) != 1 || got[0].Interval != interval.New(2, 12) {
		t.Fatalf("Stab([7]) = %v", got)
	}
	if got := tr.Stab(interval.New(13, 13)); len(got) != 0 {
		t.Fatalf("Stab([13]) = %v, want empty", got)
	}
	if got := tr.Stab(interval.New(0, 100)); len(got) != 3 {
		t.Fatalf("Stab(all) = %v", got)
	}
}

// TestStabFindsIntervalOffSearchPath is the structural fix the paper's
// Figure 5 motivates: a wide interval stored left of a narrower key must
// still be found when stabbing to its right. The legacy BST misses it.
func TestStabFindsIntervalOffSearchPath(t *testing.T) {
	var tr Tree
	tr.Insert(acc(4, 4))  // ([4], Local_Read) in the paper's example
	tr.Insert(acc(2, 12)) // MPI_Put, keyed left of [4]

	got := tr.Stab(interval.At(7)) // the Store(7)
	if len(got) != 1 || got[0].Interval != interval.New(2, 12) {
		t.Fatalf("Stab([7]) = %v, want exactly [2...12]", got)
	}
}

func TestStabOrderedOutput(t *testing.T) {
	var tr Tree
	for _, lo := range []uint64{40, 10, 30, 0, 20} {
		tr.Insert(acc(lo, lo+5))
	}
	got := tr.Stab(interval.New(0, 100))
	for i := 1; i < len(got); i++ {
		if got[i-1].Interval.Compare(got[i].Interval) >= 0 {
			t.Fatalf("stab output not sorted: %v", got)
		}
	}
}

func TestDelete(t *testing.T) {
	var tr Tree
	ivs := []interval.Interval{
		interval.New(0, 5), interval.New(10, 15), interval.New(20, 25),
		interval.New(30, 35), interval.New(40, 45),
	}
	for _, iv := range ivs {
		tr.Insert(access.Access{Interval: iv})
	}
	if !tr.Delete(interval.New(20, 25)) {
		t.Fatal("delete of present interval failed")
	}
	if tr.Delete(interval.New(20, 25)) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d after delete", tr.Len())
	}
	if got := tr.Stab(interval.New(20, 25)); len(got) != 0 {
		t.Fatalf("deleted interval still stabbed: %v", got)
	}
	for _, iv := range []interval.Interval{ivs[0], ivs[1], ivs[3], ivs[4]} {
		if got := tr.Stab(iv); len(got) != 1 {
			t.Fatalf("surviving interval %v not found", iv)
		}
	}
}

func TestFindAt(t *testing.T) {
	var tr Tree
	tr.Insert(acc(10, 20))
	if a, ok := tr.FindAt(15); !ok || a.Interval != interval.New(10, 20) {
		t.Fatalf("FindAt(15) = %v, %v", a, ok)
	}
	if _, ok := tr.FindAt(21); ok {
		t.Fatal("FindAt(21) hit")
	}
}

func TestClear(t *testing.T) {
	var tr Tree
	tr.Insert(acc(0, 1))
	tr.Insert(acc(2, 3))
	tr.Clear()
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatal("Clear did not empty the tree")
	}
}

func TestItems(t *testing.T) {
	var tr Tree
	tr.Insert(acc(10, 12))
	tr.Insert(acc(0, 2))
	items := tr.Items()
	if len(items) != 2 || items[0].Lo != 0 || items[1].Lo != 10 {
		t.Fatalf("Items() = %v", items)
	}
}

func TestVisitStabEarlyStop(t *testing.T) {
	var tr Tree
	for lo := uint64(0); lo < 100; lo += 10 {
		tr.Insert(acc(lo, lo+5))
	}
	count := 0
	done := tr.VisitStab(interval.New(0, 99), func(access.Access) bool {
		count++
		return count < 3
	})
	if done || count != 3 {
		t.Fatalf("early stop: done=%v count=%d", done, count)
	}
}

func TestBalancedHeight(t *testing.T) {
	var tr Tree
	const n = 1 << 12
	// Worst case for an unbalanced BST: sorted insertion.
	for i := 0; i < n; i++ {
		tr.Insert(acc(uint64(i*10), uint64(i*10+5)))
	}
	if h := tr.Height(); h > 2*log2(n) {
		t.Fatalf("height %d after %d sorted inserts exceeds bound %d", h, n, 2*log2(n))
	}
	checkBTree(t, &tr)
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// checkBTree verifies the B-tree invariants: every non-root node holds
// between minItems and maxItems accesses (the root at least one), all
// leaves sit at one depth, the in-order sequence is sorted, every
// cached maxHi and kidMax equals the recomputed subtree maximum, and
// the access and node counts match the tree's bookkeeping.
func checkBTree(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.root == nil {
		if tr.size != 0 || tr.nodes != 0 {
			t.Fatalf("empty tree with size %d, %d nodes", tr.size, tr.nodes)
		}
		return
	}
	leafDepth, count, nodes := -1, 0, 0
	var prev *access.Access
	var walk func(x *node, depth int) uint64
	walk = func(x *node, depth int) uint64 {
		nodes++
		count += x.n
		if x != tr.root && (x.n < minItems || x.n > maxItems) {
			t.Fatalf("node at depth %d holds %d accesses, want %d..%d", depth, x.n, minItems, maxItems)
		}
		if x == tr.root && (x.n < 1 || x.n > maxItems) {
			t.Fatalf("root holds %d accesses", x.n)
		}
		if x.leaf {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf at depth %d, another at %d", depth, leafDepth)
			}
		}
		var m uint64
		for i := 0; i <= x.n; i++ {
			if !x.leaf {
				km := walk(x.kids[i], depth+1)
				if x.kidMax[i] != km {
					t.Fatalf("kidMax[%d] = %d, subtree max %d", i, x.kidMax[i], km)
				}
				m = max(m, km)
			}
			if i == x.n {
				break
			}
			a := &x.items[i]
			if prev != nil && prev.Interval.Compare(a.Interval) > 0 {
				t.Fatalf("order violated: %v before %v", *prev, *a)
			}
			prev = a
			m = max(m, a.Hi)
		}
		if x.maxHi != m {
			t.Fatalf("cached maxHi %d at %v, subtree max %d", x.maxHi, x.items[0], m)
		}
		return m
	}
	walk(tr.root, 0)
	if count != tr.size {
		t.Fatalf("tree holds %d accesses, Len says %d", count, tr.size)
	}
	if nodes != tr.nodes {
		t.Fatalf("tree links %d nodes, bookkeeping says %d", nodes, tr.nodes)
	}
}

// refTree is the sorted-slice reference: a multiset kept in interval
// order, equal intervals in insertion order, exactly as the tree's
// in-order walk yields them.
type refTree []access.Access

func (r *refTree) insert(a access.Access) {
	i := sort.Search(len(*r), func(i int) bool { return (*r)[i].Interval.Compare(a.Interval) > 0 })
	*r = append(*r, access.Access{})
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = a
}

func (r *refTree) delete(iv interval.Interval) bool {
	i := sort.Search(len(*r), func(i int) bool { return (*r)[i].Interval.Compare(iv) >= 0 })
	if i == len(*r) || (*r)[i].Interval != iv {
		return false
	}
	*r = append((*r)[:i], (*r)[i+1:]...)
	return true
}

func (r refTree) stab(iv interval.Interval) []access.Access {
	var out []access.Access
	for _, a := range r {
		if a.Intersects(iv) {
			out = append(out, a)
		}
	}
	return out
}

// neighbors is StabNeighbors' reference: the last accesses in interval
// order that end at iv.Lo-1 and start at iv.Hi+1.
func (r refTree) neighbors(iv interval.Interval) (left, right access.Access, hasLeft, hasRight bool) {
	for _, a := range r {
		if iv.Lo > 0 && a.Hi == iv.Lo-1 {
			left, hasLeft = a, true
		}
		if iv.Hi+1 != 0 && a.Lo == iv.Hi+1 {
			right, hasRight = a, true
		}
	}
	return left, right, hasLeft, hasRight
}

// tagged builds an access whose payload is a function of its interval,
// so equal intervals are interchangeable (Delete may remove any of
// them) while an access moved without its payload is caught.
func tagged(lo, hi uint64) access.Access {
	a := acc(lo, hi)
	a.Rank = int((lo*31 + hi) % 1009)
	return a
}

// TestRandomizedAgainstReference drives the tree with random inserts,
// deletes and stabs and compares every answer against a brute-force
// slice reference, while checking the B-tree and augmentation invariants.
func TestRandomizedAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var tr Tree
	var ref []access.Access

	refStab := func(iv interval.Interval) []access.Access {
		var out []access.Access
		for _, a := range ref {
			if a.Intersects(iv) {
				out = append(out, a)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Interval.Compare(out[j].Interval) < 0 })
		return out
	}

	for step := 0; step < 5000; step++ {
		switch op := r.Intn(10); {
		case op < 5: // insert
			lo := uint64(r.Intn(1000))
			a := acc(lo, lo+uint64(r.Intn(20)))
			// Keep reference a set of unique intervals so Delete is
			// unambiguous.
			dup := false
			for _, x := range ref {
				if x.Interval == a.Interval {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			tr.Insert(a)
			ref = append(ref, a)
		case op < 8 && len(ref) > 0: // delete
			i := r.Intn(len(ref))
			iv := ref[i].Interval
			if !tr.Delete(iv) {
				t.Fatalf("step %d: delete %v failed", step, iv)
			}
			ref = append(ref[:i], ref[i+1:]...)
		default: // stab
			lo := uint64(r.Intn(1000))
			iv := interval.New(lo, lo+uint64(r.Intn(30)))
			got := tr.Stab(iv)
			want := refStab(iv)
			if len(got) != len(want) {
				t.Fatalf("step %d: stab %v: got %d hits, want %d", step, iv, len(got), len(want))
			}
			for i := range got {
				if got[i].Interval != want[i].Interval {
					t.Fatalf("step %d: stab %v: item %d = %v, want %v", step, iv, i, got[i], want[i])
				}
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d ref=%d", step, tr.Len(), len(ref))
		}
		if step%500 == 0 {
			checkBTree(t, &tr)
		}
	}
	checkBTree(t, &tr)
}

func TestStabNeighbors(t *testing.T) {
	var tr Tree
	tr.Insert(acc(0, 9))   // left neighbour of [10..19]
	tr.Insert(acc(12, 14)) // intersects
	tr.Insert(acc(20, 25)) // right neighbour
	tr.Insert(acc(40, 50)) // unrelated

	var dst []access.Access
	left, right, hasL, hasR := tr.StabNeighbors(interval.New(10, 19), &dst)
	if len(dst) != 1 || dst[0].Interval != interval.New(12, 14) {
		t.Fatalf("intersecting = %v", dst)
	}
	if !hasL || left.Interval != interval.New(0, 9) {
		t.Fatalf("left = %v, %v", left, hasL)
	}
	if !hasR || right.Interval != interval.New(20, 25) {
		t.Fatalf("right = %v, %v", right, hasR)
	}

	// No neighbours when nothing touches the bounds.
	dst = dst[:0]
	_, _, hasL, hasR = tr.StabNeighbors(interval.New(30, 35), &dst)
	if hasL || hasR || len(dst) != 0 {
		t.Fatalf("expected empty result, got dst=%v hasL=%v hasR=%v", dst, hasL, hasR)
	}
}

func TestStabNeighborsRandomizedAgainstStab(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var tr Tree
	// Disjoint intervals, as the detector maintains.
	lo := uint64(0)
	var all []access.Access
	for i := 0; i < 300; i++ {
		lo += uint64(r.Intn(5) + 1)
		a := acc(lo, lo+uint64(r.Intn(6)))
		lo = a.Hi + 1
		tr.Insert(a)
		all = append(all, a)
	}
	for trial := 0; trial < 1000; trial++ {
		qlo := uint64(r.Intn(int(lo)))
		q := interval.New(qlo, qlo+uint64(r.Intn(20)))
		var dst []access.Access
		left, right, hasL, hasR := tr.StabNeighbors(q, &dst)
		want := tr.Stab(q)
		if len(dst) != len(want) {
			t.Fatalf("trial %d: %d hits, want %d", trial, len(dst), len(want))
		}
		for i := range dst {
			if dst[i].Interval != want[i].Interval {
				t.Fatalf("trial %d: item %d = %v, want %v", trial, i, dst[i], want[i])
			}
		}
		for _, a := range all {
			if q.Lo > 0 && a.Hi == q.Lo-1 {
				if !hasL || left.Interval != a.Interval {
					t.Fatalf("trial %d: left neighbour %v missed (got %v/%v)", trial, a, left, hasL)
				}
			}
			if a.Lo == q.Hi+1 {
				if !hasR || right.Interval != a.Interval {
					t.Fatalf("trial %d: right neighbour %v missed", trial, a)
				}
			}
		}
	}
}

func TestExtendHi(t *testing.T) {
	var tr Tree
	tr.Insert(acc(10, 19))
	tr.Insert(acc(30, 39))
	if !tr.ExtendHi(interval.New(10, 19), 25) {
		t.Fatal("ExtendHi failed")
	}
	if got := tr.Stab(interval.At(25)); len(got) != 1 || got[0].Interval != interval.New(10, 25) {
		t.Fatalf("Stab after ExtendHi = %v", got)
	}
	checkBTree(t, &tr)
	if tr.ExtendHi(interval.New(10, 19), 30) {
		t.Fatal("ExtendHi matched a stale interval")
	}
	if tr.ExtendHi(interval.New(10, 25), 20) {
		t.Fatal("ExtendHi accepted a shrink")
	}
}

func TestExtendLo(t *testing.T) {
	var tr Tree
	tr.Insert(acc(10, 19))
	tr.Insert(acc(30, 39))
	if !tr.ExtendLo(interval.New(30, 39), 25) {
		t.Fatal("ExtendLo failed")
	}
	if got := tr.Stab(interval.At(25)); len(got) != 1 || got[0].Interval != interval.New(25, 39) {
		t.Fatalf("Stab after ExtendLo = %v", got)
	}
	checkBTree(t, &tr)
	if tr.ExtendLo(interval.New(25, 39), 28) {
		t.Fatal("ExtendLo accepted a shrink")
	}
	// Items remain ordered after the key change.
	items := tr.Items()
	if len(items) != 2 || items[0].Lo != 10 || items[1].Lo != 25 {
		t.Fatalf("Items = %v", items)
	}
}

func TestExtendMissingInterval(t *testing.T) {
	var tr Tree
	tr.Insert(acc(0, 5))
	if tr.ExtendHi(interval.New(7, 9), 12) || tr.ExtendLo(interval.New(7, 9), 6) {
		t.Fatal("Extend on a missing interval reported success")
	}
}

func TestDuplicateLowerBounds(t *testing.T) {
	// The multiset property: equal intervals coexist and delete removes
	// exactly one.
	var tr Tree
	tr.Insert(acc(5, 10))
	tr.Insert(acc(5, 10))
	tr.Insert(acc(5, 8))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Stab(interval.At(6)); len(got) != 3 {
		t.Fatalf("Stab = %v", got)
	}
	if !tr.Delete(interval.New(5, 10)) {
		t.Fatal("delete failed")
	}
	if got := tr.Stab(interval.At(9)); len(got) != 1 {
		t.Fatalf("after delete, Stab([9]) = %v", got)
	}
}

// TestFreeListReuse pins the zero-allocation contract: once the tree
// has grown, delete/insert and Clear/refill cycles must run entirely
// off the per-tree free list.
func TestFreeListReuse(t *testing.T) {
	var tr Tree
	const n = 64
	fill := func() {
		for i := 0; i < n; i++ {
			tr.Insert(acc(uint64(i*10), uint64(i*10+5)))
		}
	}
	fill() // warm-up: grow the tree once, paying its allocations

	if got := testing.AllocsPerRun(50, func() {
		for i := 0; i < n; i++ {
			if !tr.Delete(interval.New(uint64(i*10), uint64(i*10+5))) {
				t.Fatal("warm interval missing")
			}
		}
		fill()
	}); got != 0 {
		t.Fatalf("delete/insert cycle allocated %.1f per run, want 0", got)
	}

	if got := testing.AllocsPerRun(50, func() {
		tr.Clear()
		fill()
	}); got != 0 {
		t.Fatalf("Clear/refill cycle allocated %.1f per run, want 0", got)
	}
	if tr.Len() != n {
		t.Fatalf("tree ended with %d nodes, want %d", tr.Len(), n)
	}
}

// leafSnap is one leaf's identity and contents, for telling a delete's
// rebalancing steps apart from the outside.
type leafSnap struct {
	x     *node
	items []access.Access
}

func snapLeaves(tr *Tree) []leafSnap {
	var out []leafSnap
	var walk func(x *node)
	walk = func(x *node) {
		if x.leaf {
			out = append(out, leafSnap{x, append([]access.Access(nil), x.items[:x.n]...)})
			return
		}
		for _, k := range x.kids[:x.n+1] {
			walk(k)
		}
	}
	if tr.root != nil {
		walk(tr.root)
	}
	return out
}

// gained reports whether after holds an access before did not.
func gained(before, after []access.Access) bool {
	if slices.Equal(before, after) {
		return false
	}
	have := make(map[access.Access]int, len(before))
	for _, a := range before {
		have[a]++
	}
	for _, a := range after {
		if have[a] == 0 {
			return true
		}
		have[a]--
	}
	return false
}

// TestRandomizedDeepTree builds trees of three and more levels from
// thousands of overlapping, partly duplicate intervals over a wide
// span, mixes inserts, deletes (of present and absent intervals),
// stabs and neighbour stabs against the sorted-slice reference, then
// drains the tree. The deletes' rebalancing steps are recognised from
// the leaves (an unchanged leaf sequence where one leaf gained an access
// its left or right sibling lost is a borrow; fewer nodes is a merge; a
// lower tree is a root collapse), and every one must occur.
func TestRandomizedDeepTree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var tr Tree
	var ref refTree
	const span = 1 << 20
	randIv := func() interval.Interval {
		lo := uint64(r.Intn(span))
		return interval.New(lo, lo+uint64(r.Intn(64)))
	}
	insert := func() {
		iv := randIv()
		if r.Intn(8) == 0 && len(ref) > 0 {
			iv = ref[r.Intn(len(ref))].Interval // a duplicate
		}
		a := tagged(iv.Lo, iv.Hi)
		tr.Insert(a)
		ref.insert(a)
	}
	var borrowL, borrowR, merges, collapses, maxHeight int
	del := func(iv interval.Interval) {
		before, nodes, height := snapLeaves(&tr), tr.nodes, tr.Height()
		if got, want := tr.Delete(iv), ref.delete(iv); got != want {
			t.Fatalf("Delete(%v) = %v, reference %v", iv, got, want)
		}
		after := snapLeaves(&tr)
		switch h := tr.Height(); {
		case h < height:
			collapses++
		case tr.nodes < nodes:
			merges++
		case len(after) == len(before):
			for p := range after {
				if after[p].x != before[p].x || !gained(before[p].items, after[p].items) {
					continue
				}
				if p > 0 && len(after[p-1].items) < len(before[p-1].items) {
					borrowL++
				}
				if p+1 < len(after) && len(after[p+1].items) < len(before[p+1].items) {
					borrowR++
				}
			}
		}
	}
	check := func(step int) {
		checkBTree(t, &tr)
		if !slices.Equal(tr.Items(), ref) {
			t.Fatalf("step %d: in-order items diverge from the reference", step)
		}
		maxHeight = max(maxHeight, tr.Height())
	}

	for i := 0; i < 3000; i++ {
		insert()
	}
	check(0)
	for step := 1; step <= 6000; step++ {
		switch op := r.Intn(20); {
		case op < 9:
			insert()
		case op < 17 && len(ref) > 0:
			iv := ref[r.Intn(len(ref))].Interval
			if op == 16 {
				iv = randIv() // most likely absent
			}
			del(iv)
		default:
			iv := randIv()
			if got, want := tr.Stab(iv), ref.stab(iv); !slices.Equal(got, want) {
				t.Fatalf("step %d: Stab(%v) = %v, want %v", step, iv, got, want)
			}
			var dst []access.Access
			l, rt, hasL, hasR := tr.StabNeighbors(iv, &dst)
			wl, wr, wantL, wantR := ref.neighbors(iv)
			if !slices.Equal(dst, ref.stab(iv)) || hasL != wantL || hasR != wantR || (hasL && l != wl) || (hasR && rt != wr) {
				t.Fatalf("step %d: StabNeighbors(%v) = %v %v/%v %v/%v, want %v %v/%v %v/%v",
					step, iv, dst, l, hasL, rt, hasR, ref.stab(iv), wl, wantL, wr, wantR)
			}
		}
		if step%250 == 0 {
			check(step)
		}
	}
	check(6000)
	for len(ref) > 0 {
		del(ref[r.Intn(len(ref))].Interval)
		if len(ref)%97 == 0 {
			check(-1)
		}
	}
	check(-1)
	if tr.root != nil || tr.Len() != 0 {
		t.Fatalf("drained tree still holds %d accesses", tr.Len())
	}
	t.Logf("height %d, borrow-left %d, borrow-right %d, merges %d, root collapses %d", maxHeight, borrowL, borrowR, merges, collapses)
	if maxHeight < 3 || borrowL == 0 || borrowR == 0 || merges == 0 || collapses == 0 {
		t.Fatalf("coverage: height %d, borrow-left %d, borrow-right %d, merges %d, root collapses %d; want height >= 3 and every step seen",
			maxHeight, borrowL, borrowR, merges, collapses)
	}
}

// TestReleaseFreeKeepsHighWater pins the compaction contract: after an
// epoch that held n accesses, Clear + ReleaseFree keeps exactly the
// nodes a refill to n needs, so the refill allocates nothing; after an
// epoch without inserts, ReleaseFree leaves no free node behind.
func TestReleaseFreeKeepsHighWater(t *testing.T) {
	var tr Tree
	const n = 2000
	fill := func() {
		for i := 0; i < n; i++ {
			tr.Insert(acc(uint64(i*10), uint64(i*10+5)))
		}
	}
	fill()
	used := tr.nodes
	if got := testing.AllocsPerRun(20, func() {
		tr.Clear()
		tr.ReleaseFree()
		fill()
	}); got != 0 {
		t.Fatalf("Clear/ReleaseFree/refill allocated %.1f per run, want 0", got)
	}
	tr.Clear()
	tr.ReleaseFree()
	if tr.freeN != used {
		t.Fatalf("ReleaseFree after a %d-node epoch kept %d free nodes", used, tr.freeN)
	}
	// An epoch without inserts: the high-water mark is the empty tree.
	tr.Clear()
	tr.ReleaseFree()
	if tr.freeN != 0 || tr.free != nil {
		t.Fatalf("ReleaseFree after an idle epoch kept %d free nodes", tr.freeN)
	}
}

// maxFuzzLen bounds the tree FuzzTree grows by bulk inserts, keeping
// every input's reference checks cheap.
const maxFuzzLen = 1 << 12

// FuzzTree drives the tree with a byte-coded sequence of inserts, bulk
// inserts, deletes, stabs, neighbour stabs, Clear and ReleaseFree, and
// checks every answer and the B-tree invariants against the sorted-
// slice reference. Each operation takes four bytes: an opcode and three
// operands.
func FuzzTree(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 4, 2, 1, 2, 3, 3, 1, 0, 9})
	f.Add([]byte{1, 40, 3, 5, 2, 0, 0, 0, 1, 40, 7, 9, 4, 0, 0, 0, 5, 0, 0, 0, 1, 60, 3, 5, 3, 2, 0, 30})
	f.Add([]byte{1, 255, 1, 0, 2, 10, 0, 0, 2, 200, 0, 0, 6, 0, 0, 0, 2, 7, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var tr Tree
		var ref refTree
		for len(prog) >= 4 {
			op, a, b, c := prog[0], uint64(prog[1]), uint64(prog[2]), uint64(prog[3])
			prog = prog[4:]
			lo := a<<4 | b>>4
			iv := interval.New(lo, lo+c%32)
			switch op % 7 {
			case 0: // insert
				x := tagged(iv.Lo, iv.Hi)
				tr.Insert(x)
				ref.insert(x)
			case 1: // bulk insert: up to 512 intervals, stride b%16+1 from c*64
				if len(ref) >= maxFuzzLen {
					break
				}
				for k := uint64(0); k < (a%32+1)*16; k++ {
					l := c*64 + k*(b%16+1)
					x := tagged(l, l+b%3)
					tr.Insert(x)
					ref = append(ref, x)
				}
				sort.SliceStable(ref, func(i, j int) bool { return ref[i].Interval.Compare(ref[j].Interval) < 0 })
			case 2: // delete a stored interval, or iv if the tree is empty
				if len(ref) > 0 {
					iv = ref[int(a<<8|b)%len(ref)].Interval
				}
				if got, want := tr.Delete(iv), ref.delete(iv); got != want {
					t.Fatalf("Delete(%v) = %v, reference %v", iv, got, want)
				}
			case 3: // delete a possibly absent interval
				if got, want := tr.Delete(iv), ref.delete(iv); got != want {
					t.Fatalf("Delete(%v) = %v, reference %v", iv, got, want)
				}
			case 4:
				if got, want := tr.Stab(iv), ref.stab(iv); !slices.Equal(got, want) {
					t.Fatalf("Stab(%v) = %v, want %v", iv, got, want)
				}
			case 5:
				var dst []access.Access
				l, r, hasL, hasR := tr.StabNeighbors(iv, &dst)
				wl, wr, wantL, wantR := ref.neighbors(iv)
				if !slices.Equal(dst, ref.stab(iv)) || hasL != wantL || hasR != wantR || (hasL && l != wl) || (hasR && r != wr) {
					t.Fatalf("StabNeighbors(%v) = %v %v/%v %v/%v, want %v %v/%v %v/%v",
						iv, dst, l, hasL, r, hasR, ref.stab(iv), wl, wantL, wr, wantR)
				}
			case 6:
				if a%2 == 0 {
					tr.Clear()
					ref = ref[:0]
				}
				keep := min(tr.freeN, tr.peak-tr.nodes)
				tr.ReleaseFree()
				if tr.freeN != keep {
					t.Fatalf("ReleaseFree kept %d free nodes, want %d", tr.freeN, keep)
				}
			}
			checkBTree(t, &tr)
			if !slices.Equal(tr.Items(), ref) {
				t.Fatalf("in-order items diverge from the reference after op %d", op%7)
			}
		}
	})
}
