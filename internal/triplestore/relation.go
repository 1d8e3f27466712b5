package triplestore

import "sync"

// Relation is a set of triples — one of the ternary relations Ei of a
// triplestore, or the result of evaluating a (closed) algebra expression.
// The zero value is not usable; call NewRelation.
//
// A relation is safe for concurrent readers (Has, Triples, Index, ForEach,
// ...): the lazily built sorted view and permutation indexes are guarded
// by a mutex. Mutation (Add, AddAll, Remove) requires exclusive access.
// Store.Snapshot freezes its relations: a frozen relation rejects
// mutation (panics), and the live store transparently clones it on the
// next store-mediated write (copy-on-write), so snapshot readers never
// observe a change.
//
// A relation may be run-backed: set == nil and src == nil, with the
// content held in sorted runs — the cached SPO index (base run plus
// sorted tail) is the content, and the sorted view is only a cache of
// it. Bulk loading from a checkpoint segment produces these, with all
// three permutation indexes. Membership is a binary search in the SPO
// index; Add extends the indexes (see Index.withAdded) and keeps the
// relation run-backed, so a fully indexed relation never carries a
// membership map and its copy-on-write Clone is a pointer copy. Only
// Remove materializes the map (ensureSet).
//
// A relation may further be source-backed: set == nil and sorted == nil
// with src serving the content straight from storage (see RunSource).
// Reads decode only what they touch; full decodes are cached only when
// the source's residency policy allows, and the first mutation
// materializes the membership map.
type Relation struct {
	set    map[Triple]struct{} // nil ⇒ run-backed (idx[SPO] is the content) or source-backed
	src    RunSource           // non-nil ⇒ content may be served from storage
	frozen bool                // set by Store.Snapshot; mutation panics, the store clones first

	mu     sync.Mutex       // guards the lazy caches below
	sorted []Triple         // cached sorted view; nil when stale
	idx    [numPerms]*Index // cached permutation indexes; nil when stale, but idx[SPO] never when run-backed
	stats  *RelStats        // cached statistics; nil when stale, replaced (never written through) on Add
}

// NewRelation returns an empty relation.
func NewRelation() *Relation {
	return &Relation{set: make(map[Triple]struct{})}
}

// NewRelationCap returns an empty relation with capacity for n triples.
func NewRelationCap(n int) *Relation {
	return &Relation{set: make(map[Triple]struct{}, n)}
}

// RelationOf builds a relation from the given triples.
func RelationOf(ts ...Triple) *Relation {
	r := NewRelationCap(len(ts))
	for _, t := range ts {
		r.Add(t)
	}
	return r
}

// Add inserts t and reports whether it was new. Permutation indexes that
// have already been built are maintained incrementally (each gains t in
// its sorted overlay) instead of being dropped for a full rebuild, and
// so are cached statistics while all three indexes are there (see
// statsWith); the sorted view is invalidated. A run-backed relation
// stays run-backed.
func (r *Relation) Add(t Triple) bool {
	if r.frozen {
		panic("triplestore: Add on a frozen (snapshot) relation")
	}
	if r.runBacked() && r.fullyIndexed() {
		if r.idx[SPO].contains(t) {
			return false
		}
	} else {
		r.ensureSet()
		if _, ok := r.set[t]; ok {
			return false
		}
		r.set[t] = struct{}{}
	}
	r.sorted = nil
	r.stats = r.statsWith(t)
	for p, ix := range r.idx {
		if ix != nil {
			r.idx[p] = ix.withAdded(t)
		}
	}
	return true
}

// Remove deletes t and reports whether it was present. Unlike Add,
// removal invalidates the permutation indexes (the overlay handles
// additions only); the next probe rebuilds them.
func (r *Relation) Remove(t Triple) bool {
	if r.frozen {
		panic("triplestore: Remove on a frozen (snapshot) relation")
	}
	r.ensureSet()
	if _, ok := r.set[t]; !ok {
		return false
	}
	delete(r.set, t)
	r.sorted = nil
	r.idx = [numPerms]*Index{}
	r.stats = nil
	return true
}

// runBacked reports whether the relation's content is its SPO index.
func (r *Relation) runBacked() bool { return r.set == nil && r.src == nil }

// fullyIndexed reports whether all three permutation indexes are cached.
func (r *Relation) fullyIndexed() bool {
	return r.idx[SPO] != nil && r.idx[POS] != nil && r.idx[OSP] != nil
}

// ensureSet materializes the membership map of a run- or source-backed
// relation. Callers must hold exclusive access (it is reached from
// Remove, and from Add on a relation that is not both run-backed and
// fully indexed).
//
// The decode itself is transient as far as the residency tracker is
// concerned: evaluators clone base relations and mutate the clones (a
// reach fixpoint seeds from its base), and that working set belongs to
// the query, not to the store. Only the store's own write path promotes
// the underlying relation — see forceResident.
func (r *Relation) ensureSet() {
	if r.set != nil {
		return
	}
	if r.src == nil { // run-backed
		set := make(map[Triple]struct{}, r.Len())
		r.ForEach(func(t Triple) { set[t] = struct{}{} })
		r.set = set
		return
	}
	ts := r.sorted
	if ts == nil {
		ts = r.src.Run(SPO)
	}
	r.src = nil
	set := make(map[Triple]struct{}, len(ts))
	for _, t := range ts {
		set[t] = struct{}{}
	}
	r.set = set
}

// forceResident promotes a source-backed relation in its source's
// residency accounting. The store's write path calls it on the live
// relation before mutating: the write is about to materialize the
// relation on the heap (ensureSet), so the tracker must account for it
// even past the budget. Evaluator clones sharing the same source never
// call this — their materialized working set dies with the query and
// must not flip the store's relation to resident.
func (r *Relation) forceResident() {
	if r.set == nil && r.src != nil {
		r.src.Retain(true)
	}
}

// Has reports membership of t.
func (r *Relation) Has(t Triple) bool {
	if r.set == nil {
		if r.src != nil {
			// Source-backed: probe the storage blocks covering t's
			// subject. r.sorted is deliberately not consulted here — it
			// may be cached concurrently under the relation's mutex, and
			// the source answers without coordination.
			for _, c := range r.src.Match(SPO, t[0]) {
				if c == t {
					return true
				}
			}
			return false
		}
		// Run-backed: the SPO index, not the sorted view — the view may
		// be cached concurrently under the mutex, the index may not.
		return r.idx[SPO].contains(t)
	}
	_, ok := r.set[t]
	return ok
}

// Len returns the number of triples.
func (r *Relation) Len() int {
	if r.set == nil {
		if r.src != nil {
			return r.src.Len()
		}
		return r.idx[SPO].Len()
	}
	return len(r.set)
}

// Triples returns the triples in lexicographic order. The returned slice
// must not be modified. It is cached — except on a source-backed
// relation whose residency policy forbids retention, where each call
// decodes a fresh (transient) slice.
func (r *Relation) Triples() []Triple {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sortedLocked()
}

// Slice returns the triples in unspecified order: the sorted view when
// one is cached or the relation has no map (its runs merge in linear
// time), otherwise an unsorted copy of the map — cheaper than Triples()
// when the caller only iterates. The returned slice must not be modified.
func (r *Relation) Slice() []Triple {
	r.mu.Lock()
	if r.sorted != nil || r.set == nil {
		s := r.sortedLocked()
		r.mu.Unlock()
		return s
	}
	r.mu.Unlock()
	out := make([]Triple, 0, len(r.set))
	for t := range r.set {
		out = append(out, t)
	}
	return out
}

// ForEach calls f on every triple in unspecified order.
func (r *Relation) ForEach(f func(Triple)) {
	if r.set == nil {
		if r.src != nil {
			// Decode under the mutex (caching per residency policy),
			// iterate outside it: returned slices are immutable.
			r.mu.Lock()
			ts := r.sortedLocked()
			r.mu.Unlock()
			for _, t := range ts {
				f(t)
			}
			return
		}
		spo := r.idx[SPO]
		for _, run := range [2][]Triple{spo.triples, spo.tail} {
			for _, t := range run {
				f(t)
			}
		}
		return
	}
	for t := range r.set {
		f(t)
	}
}

// Clone returns an unfrozen copy of r. The sorted view and permutation
// indexes are shared with r (both are immutable snapshots, replaced or
// dropped independently on mutation), so cloning before a fixpoint does
// not re-sort — and the store's copy-on-write of a frozen relation keeps
// its access paths warm.
func (r *Relation) Clone() *Relation {
	c := &Relation{}
	if r.set != nil {
		c.set = make(map[Triple]struct{}, len(r.set))
		for t := range r.set {
			c.set[t] = struct{}{}
		}
	}
	// A run-backed clone stays run-backed, and a source-backed clone
	// stays source-backed (sources are immutable and safely shared):
	// the shared sorted view, indexes and statistics are never mutated
	// in place (Add replaces them with new values, Remove materializes a
	// private map and drops them), so copy-on-write of a bulk-loaded
	// relation is a pointer copy however often it is written.
	r.mu.Lock()
	c.sorted = r.sorted
	c.src = r.src
	c.idx = r.idx
	c.stats = r.stats
	r.mu.Unlock()
	return c
}

// AddAll inserts every triple of s into r and reports how many were new.
func (r *Relation) AddAll(s *Relation) int {
	added := 0
	s.ForEach(func(t Triple) {
		if r.Add(t) {
			added++
		}
	})
	return added
}

// Union returns a new relation containing the triples of a and b.
func Union(a, b *Relation) *Relation {
	r := a.Clone()
	r.AddAll(b)
	return r
}

// Difference returns a new relation containing triples of a not in b.
func Difference(a, b *Relation) *Relation {
	r := NewRelationCap(a.Len())
	a.ForEach(func(t Triple) {
		if !b.Has(t) {
			r.Add(t)
		}
	})
	return r
}

// Intersection returns a new relation containing triples in both a and b.
func Intersection(a, b *Relation) *Relation {
	small, large := a, b
	if small.Len() > large.Len() {
		small, large = large, small
	}
	r := NewRelationCap(small.Len())
	small.ForEach(func(t Triple) {
		if large.Has(t) {
			r.Add(t)
		}
	})
	return r
}

// Equal reports whether a and b contain exactly the same triples.
func (r *Relation) Equal(s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	if r.set == nil {
		for _, t := range r.Triples() { // locked: r.sorted may be cached concurrently
			if !s.Has(t) {
				return false
			}
		}
		return true
	}
	for t := range r.set {
		if !s.Has(t) {
			return false
		}
	}
	return true
}
