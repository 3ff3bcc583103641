package store

import (
	"rmarace/internal/access"
	"rmarace/internal/interval"
	"rmarace/internal/itree"
	"rmarace/internal/strided"
)

// minRun is the run length below which a broken strided run is
// re-materialised into the tree instead of being kept as a section:
// short runs compress nothing and would bloat the section scan.
const minRun = 4

// identKey identifies a strided access stream: everything an element of
// a regular section must share except its address. Epoch is part of the
// identity so a section never absorbs accesses from different epochs —
// its representatives would otherwise report the section head's epoch
// and corrupt the epoch-equality clause of the race predicate when a
// trace interleaves epochs without an intervening Clear.
type identKey struct {
	tp    access.Type
	rank  int
	epoch uint64
	stack bool
	op    access.AccumOp
	debug access.Debug
	width uint64
}

func identOf(a access.Access) identKey {
	return identKey{tp: a.Type, rank: a.Rank, epoch: a.Epoch, stack: a.Stack, op: a.AccumOp, debug: a.Debug, width: a.Interval.Len()}
}

// run tracks one stream's pending compression.
type run struct {
	sec     *strided.Section
	last    access.Access
	hasLast bool
}

// Strided is a compressing store: constant-stride access runs — such as
// MiniVite's attribute accesses on 24-byte-strided records, which plain
// merging cannot coalesce because they are not adjacent — collapse into
// regular sections (§6(3), after Ketterlin & Clauss), while everything
// else lives in an itree interval tree. Stab reports section elements as
// individual representative accesses, so detection logic on top sees
// the same multiset a plain tree would hold.
type Strided struct {
	tree     itree.Tree
	sections []strided.Section
	open     map[identKey]*run
}

// NewStrided returns an empty compressing store.
func NewStrided() *Strided {
	return &Strided{open: make(map[identKey]*run)}
}

// Name implements AccessStore.
func (*Strided) Name() string { return "strided" }

// Insert implements AccessStore, absorbing a into its stream's section
// when it continues the stream's constant stride.
func (s *Strided) Insert(a access.Access) {
	key := identOf(a)
	rs := s.open[key]
	if rs == nil {
		rs = &run{}
		s.open[key] = rs
	}
	if rs.sec != nil {
		if rs.sec.CanAppend(a) {
			rs.sec.Append()
			return
		}
		s.closeRun(rs)
	}
	if rs.hasLast {
		if sec, err := strided.New(rs.last, a); err == nil {
			// Reclaim the run's first element from the tree; if it was
			// meanwhile deleted, fall back to plain storage.
			if s.tree.Delete(rs.last.Interval) {
				rs.sec = &sec
				rs.hasLast = false
				return
			}
		}
	}
	rs.last = a
	rs.hasLast = true
	s.tree.Insert(a)
}

// closeRun finalises a pending section, keeping it when long enough and
// re-materialising its elements into the tree otherwise.
func (s *Strided) closeRun(rs *run) {
	sec := rs.sec
	rs.sec = nil
	if sec == nil {
		return
	}
	if sec.Elements() >= minRun {
		s.sections = append(s.sections, *sec)
		return
	}
	for k := uint64(0); k < sec.Elements(); k++ {
		s.tree.Insert(sec.Representative(k))
	}
}

// Delete implements AccessStore. An access absorbed into a section is
// deleted by splitting the section around its element; the shorter
// remnants re-materialise into the tree.
func (s *Strided) Delete(iv interval.Interval) bool {
	if s.tree.Delete(iv) {
		return true
	}
	for i := range s.sections {
		if s.deleteFromSection(&s.sections[i], iv) {
			if s.sections[i].Count == 0 {
				s.sections = append(s.sections[:i], s.sections[i+1:]...)
			}
			return true
		}
	}
	for _, rs := range s.open {
		if rs.sec != nil && s.deleteFromSection(rs.sec, iv) {
			if rs.sec.Count == 0 {
				rs.sec = nil
			}
			return true
		}
	}
	return false
}

// deleteFromSection removes the element of sec covering exactly iv,
// splitting the section: the prefix stays (or re-materialises when too
// short), the suffix always re-materialises into the tree. It reports
// whether an element matched.
func (s *Strided) deleteFromSection(sec *strided.Section, iv interval.Interval) bool {
	from, to := sec.Overlap(iv)
	for k := from; k < to; k++ {
		if sec.Element(k) != iv {
			continue
		}
		for j := k + 1; j < sec.Count; j++ {
			s.tree.Insert(sec.Representative(j))
		}
		sec.Count = k
		if sec.Count < minRun {
			for j := uint64(0); j < sec.Count; j++ {
				s.tree.Insert(sec.Representative(j))
			}
			sec.Count = 0
		}
		return true
	}
	return false
}

// eachSection visits every finalised and open section.
func (s *Strided) eachSection(fn func(sec *strided.Section) bool) bool {
	for i := range s.sections {
		if !fn(&s.sections[i]) {
			return false
		}
	}
	for _, rs := range s.open {
		if rs.sec != nil {
			if !fn(rs.sec) {
				return false
			}
		}
	}
	return true
}

// Stab implements AccessStore: tree hits in ascending order, then the
// intersecting elements of each section as representatives.
func (s *Strided) Stab(iv interval.Interval, fn func(access.Access) bool) bool {
	if !s.tree.VisitStab(iv, fn) {
		return false
	}
	return s.eachSection(func(sec *strided.Section) bool {
		from, to := sec.Overlap(iv)
		for k := from; k < to; k++ {
			if !fn(sec.Representative(k)) {
				return false
			}
		}
		return true
	})
}

// Walk implements AccessStore: the tree in order, then every section
// element.
func (s *Strided) Walk(fn func(access.Access) bool) {
	done := true
	s.tree.InOrder(func(a access.Access) bool {
		done = fn(a)
		return done
	})
	if !done {
		return
	}
	s.eachSection(func(sec *strided.Section) bool {
		for k := uint64(0); k < sec.Count; k++ {
			if !fn(sec.Representative(k)) {
				return false
			}
		}
		return true
	})
}

// RemoveRank implements RankRemover: the rank's tree nodes and sections
// are retired.
func (s *Strided) RemoveRank(rank int) {
	s.removeIf(func(a access.Access) bool { return a.Rank == rank })
}

// RemoveRemote implements RemoteRemover: every remote one-sided tree
// node and section retires (the exclusive-unlock ordering).
func (s *Strided) RemoveRemote(owner int) {
	s.removeIf(func(a access.Access) bool { return a.Rank != owner && a.Type.IsRMA() })
}

func (s *Strided) removeIf(doomed func(access.Access) bool) {
	var dead []access.Access
	s.tree.InOrder(func(a access.Access) bool {
		if doomed(a) {
			dead = append(dead, a)
		}
		return true
	})
	for _, d := range dead {
		s.tree.Delete(d.Interval)
	}
	kept := s.sections[:0]
	for _, sec := range s.sections {
		if !doomed(sec.Acc) {
			kept = append(kept, sec)
		}
	}
	s.sections = kept
	for k := range s.open {
		if doomed(access.Access{Type: k.tp, Rank: k.rank, AccumOp: k.op}) {
			delete(s.open, k)
		}
	}
}

// Clear implements AccessStore.
func (s *Strided) Clear() {
	s.tree.Clear()
	s.sections = s.sections[:0]
	s.open = make(map[identKey]*run)
}

// Len implements AccessStore: tree nodes plus one per section (the
// compression metric).
func (s *Strided) Len() int {
	n := s.tree.Len() + len(s.sections)
	for _, rs := range s.open {
		if rs.sec != nil {
			n++
		}
	}
	return n
}

// Sections returns the live sections, for inspection and testing.
func (s *Strided) Sections() []strided.Section {
	out := make([]strided.Section, len(s.sections))
	copy(out, s.sections)
	for _, rs := range s.open {
		if rs.sec != nil {
			out = append(out, *rs.sec)
		}
	}
	return out
}

var (
	_ AccessStore   = (*Strided)(nil)
	_ RankRemover   = (*Strided)(nil)
	_ RemoteRemover = (*Strided)(nil)
)
