package triplestore

import "sync"

// RelStats summarizes one relation for cost-based query optimization:
// its cardinality and the number of distinct objects in each of the
// three positions. The per-position distinct counts estimate the bucket
// size of a single-position index probe (|R| / Distinct[i]) far more
// accurately than the global |O| bound: a relation whose middle position
// holds only a handful of predicates has large POS buckets, and the
// planner should know.
type RelStats struct {
	// Triples is the relation's cardinality |R|.
	Triples int `json:"triples"`
	// Distinct counts the distinct objects per position: subjects,
	// predicates, objects in RDF terms.
	Distinct [3]int `json:"distinct"`
	// MaxMatch is the largest number of triples sharing one value at
	// each position — the worst-case bucket of a point probe there.
	// Fanout is the average bucket; the spread between the two is the
	// skew signal the planner's worst-case join costing keys off: on a
	// power-law graph MaxMatch dwarfs Fanout, and a binary join plan
	// that probes through the heavy value pays MaxMatch, not Fanout.
	MaxMatch [3]int `json:"max_match"`
}

// Fanout estimates how many triples of the relation match a point probe
// on the given position (0..2): |R| divided by the position's distinct
// count, at least 1 for nonempty relations. It is the expected bucket
// size under a uniform distribution — exact when the relation is a key
// on that position.
func (st RelStats) Fanout(pos int) float64 {
	if st.Triples == 0 {
		return 0
	}
	d := st.Distinct[pos]
	if d < 1 {
		d = 1
	}
	f := float64(st.Triples) / float64(d)
	if f < 1 {
		return 1
	}
	return f
}

// WorstFanout is the worst-case analogue of Fanout: the largest bucket a
// point probe on the position can hit (MaxMatch), at least 1 for
// nonempty relations. The planner uses it to bound a binary join plan's
// intermediate size from above when weighing it against the AGM bound
// of a worst-case-optimal plan.
func (st RelStats) WorstFanout(pos int) float64 {
	if st.Triples == 0 {
		return 0
	}
	m := st.MaxMatch[pos]
	if m < 1 {
		m = 1
	}
	return float64(m)
}

// Stats computes (and caches) the relation's statistics. Safe for
// concurrent readers. Add keeps cached statistics up to date while the
// relation carries all three permutation indexes (statsWith), at three
// index probes per triple; Remove, and Add on a relation missing an
// index, drop them. The recomputation reads each position's Distinct
// and MaxMatch off the group boundaries of the cached index leading on
// it, one linear pass and no map; a relation without all three indexes
// counts through maps over its content instead.
func (r *Relation) Stats() RelStats {
	st, _ := r.statsComputed()
	return st
}

// statsComputed is Stats, also reporting whether this call computed the
// statistics from scratch rather than returning cached ones.
func (r *Relation) statsComputed() (RelStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stats != nil {
		return *r.stats, false
	}
	st := RelStats{Triples: r.Len()}
	if r.fullyIndexed() {
		for i := range st.Distinct {
			st.Distinct[i], st.MaxMatch[i] = r.idx[PermFor(i)].leadGroups()
		}
		r.stats = &st
		return st, true
	}
	var counts [3]map[ID]int
	for i := range counts {
		counts[i] = make(map[ID]int, st.Triples)
	}
	count := func(t Triple) {
		counts[0][t[0]]++
		counts[1][t[1]]++
		counts[2][t[2]]++
	}
	if r.set == nil { // run- or source-backed
		for _, t := range r.sortedLocked() {
			count(t)
		}
	} else {
		for t := range r.set {
			count(t)
		}
	}
	for i, c := range counts {
		st.Distinct[i] = len(c)
		for _, n := range c {
			if n > st.MaxMatch[i] {
				st.MaxMatch[i] = n
			}
		}
	}
	r.stats = &st
	return st, true
}

// statsWith returns the statistics of the relation with t added — a
// fresh value, since the cached one may be shared with a frozen clone —
// or nil when there are no cached statistics or an index is missing.
// It must run before the indexes take t: a position's match count for
// t[i] tells whether t[i] is a new value there (count 0) and how large
// its group grows (count + 1).
func (r *Relation) statsWith(t Triple) *RelStats {
	if r.stats == nil || !r.fullyIndexed() {
		return nil
	}
	st := *r.stats
	for i := range st.Distinct {
		c := r.idx[PermFor(i)].MatchCount(t[i])
		if c == 0 {
			st.Distinct[i]++
		}
		st.MaxMatch[i] = max(st.MaxMatch[i], c+1)
	}
	st.Triples++
	return &st
}

// StoreStats is a snapshot of the statistics of every relation in a
// store, taken at one store version. The optimizer and the physical
// planner consume it; the server's /stats endpoint exposes the refresh
// counter so operators can see when statistics were rebuilt.
type StoreStats struct {
	// Version is the Store.Version the snapshot was computed at.
	Version uint64 `json:"version"`
	// Relations maps each relation name to its statistics.
	Relations map[string]RelStats `json:"relations"`
}

// Rel returns the statistics for the named relation (the zero RelStats
// if the relation does not exist in the snapshot).
func (ss StoreStats) Rel(name string) RelStats { return ss.Relations[name] }

// statsCache is the store-level statistics snapshot, guarded by its own
// mutex so concurrent readers (engines planning queries in parallel)
// can share one snapshot without racing on the lazy rebuild.
type statsCache struct {
	mu        sync.Mutex
	snap      *StoreStats
	refreshes uint64
}

// Stats returns a statistics snapshot for the store's current version,
// recomputing it only when the store has been mutated since the last
// snapshot (Store.Version advanced). The returned value is shared and
// must be treated as read-only.
func (s *Store) Stats() StoreStats {
	s.statsCache.mu.Lock()
	defer s.statsCache.mu.Unlock()
	v := s.Version()
	if s.statsCache.snap != nil && s.statsCache.snap.Version == v {
		return *s.statsCache.snap
	}
	// Hold the store's reader lock (live stores only) for the whole
	// recomputation: Relation.Stats iterates each relation's triple set,
	// which store-mediated writers mutate under the writer lock.
	if !s.frozen {
		s.mu.RLock()
	}
	snap := StoreStats{Version: v, Relations: make(map[string]RelStats, len(s.rels))}
	for _, name := range s.relNames {
		st, computed := s.rels[name].statsComputed()
		if computed {
			s.relStatsPasses.Add(1)
		}
		snap.Relations[name] = st
	}
	if !s.frozen {
		s.mu.RUnlock()
	}
	s.statsCache.snap = &snap
	s.statsCache.refreshes++
	return snap
}

// StatsRefreshes reports how many times the store-level statistics
// snapshot has been rebuilt (i.e. how often Stats found its cache stale).
func (s *Store) StatsRefreshes() uint64 {
	s.statsCache.mu.Lock()
	defer s.statsCache.mu.Unlock()
	return s.statsCache.refreshes
}

// RelationStatsPasses reports how many times Stats, on the store or on
// any of its snapshots, found a relation without cached statistics and
// computed them from scratch — the O(|R|) pass that incremental upkeep
// on Add (Relation.Stats) exists to avoid after every write.
func (s *Store) RelationStatsPasses() uint64 { return s.relStatsPasses.Load() }
