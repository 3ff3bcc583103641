package store

import (
	"rmarace/internal/access"
	"rmarace/internal/interval"
	"rmarace/internal/itree"
)

// AVL adapts the balanced interval tree of package itree — the
// contribution's storage — to the AccessStore interface. The tree is a
// B-tree; the adapter keeps the name "avl" (CLI flag, conformance
// baseline) from the AVL tree it used to wrap. It implements every
// optional capability: the single-traversal StabNeighbors and the
// in-place ExtendHi/ExtendLo carry the merge fast path of Algorithm 1.
type AVL struct {
	tree itree.Tree
}

// NewAVL returns an empty AVL-backed store.
func NewAVL() *AVL { return &AVL{} }

// Name implements AccessStore.
func (*AVL) Name() string { return "avl" }

// Insert implements AccessStore.
func (s *AVL) Insert(a access.Access) { s.tree.Insert(a) }

// InsertBatch implements BatchInserter.
func (s *AVL) InsertBatch(batch []access.Access) {
	for _, a := range batch {
		s.tree.Insert(a)
	}
}

// Delete implements AccessStore.
func (s *AVL) Delete(iv interval.Interval) bool { return s.tree.Delete(iv) }

// Stab implements AccessStore with the complete O(log n + k) stabbing
// query of the augmented tree.
func (s *AVL) Stab(iv interval.Interval, fn func(access.Access) bool) bool {
	return s.tree.VisitStab(iv, fn)
}

// StabNeighbors implements NeighborStabber.
func (s *AVL) StabNeighbors(iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool) {
	return s.tree.StabNeighbors(iv, dst)
}

// ExtendHi implements Extender.
func (s *AVL) ExtendHi(iv interval.Interval, newHi uint64) bool { return s.tree.ExtendHi(iv, newHi) }

// ExtendLo implements Extender.
func (s *AVL) ExtendLo(iv interval.Interval, newLo uint64) bool { return s.tree.ExtendLo(iv, newLo) }

// Walk implements AccessStore in ascending interval order.
func (s *AVL) Walk(fn func(access.Access) bool) { s.tree.InOrder(fn) }

// Clear implements AccessStore.
func (s *AVL) Clear() { s.tree.Clear() }

// Len implements AccessStore.
func (s *AVL) Len() int { return s.tree.Len() }

// Compact implements Compacter: it trims the tree's recycled-node free
// list to the tree's high-water mark since the previous Compact
// (itree.ReleaseFree). A tree that refills to the same size every epoch
// keeps exactly the nodes it needs and refills without allocating; a
// tree that stayed at its live size, such as a cold owner's emptied
// one, releases every free node.
func (s *AVL) Compact() { s.tree.ReleaseFree() }

var (
	_ AccessStore     = (*AVL)(nil)
	_ BatchInserter   = (*AVL)(nil)
	_ NeighborStabber = (*AVL)(nil)
	_ Extender        = (*AVL)(nil)
	_ Compacter       = (*AVL)(nil)
)
