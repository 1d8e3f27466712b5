package triplestore

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// runBackedStore bulk-loads a store whose relation E holds the given
// triples as three sorted runs — the way the disk engine opens a
// checkpoint — over objects named o0..o(n-1).
func runBackedStore(t testing.TB, n int, ts []Triple) *Store {
	t.Helper()
	bl := NewBulkLoader()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i)
	}
	if err := bl.AddNames(names); err != nil {
		t.Fatal(err)
	}
	var runs [numPerms][]Triple
	for perm := range runs {
		p := Perm(perm)
		runs[perm] = slices.Clone(ts)
		slices.SortFunc(runs[perm], func(a, b Triple) int { return cmpTriple(p.key(a), p.key(b)) })
	}
	if err := bl.SetRelationRuns("E", runs[SPO], runs[POS], runs[OSP]); err != nil {
		t.Fatal(err)
	}
	return bl.Store()
}

func cmpTriple(a, b Triple) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// distinctTriples draws k distinct random triples over n objects.
func distinctTriples(rng *rand.Rand, n, k int) []Triple {
	seen := make(map[Triple]bool, k)
	out := make([]Triple, 0, k)
	for len(out) < k {
		t := randTriple(rng, n)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// randTriple draws a triple over n objects, skewed towards low IDs in
// the middle position so predicate groups are large and uneven.
func randTriple(rng *rand.Rand, n int) Triple {
	return Triple{ID(rng.Intn(n)), ID(rng.Intn(1 + rng.Intn(n))), ID(rng.Intn(n))}
}

// TestSnapshotStatsKeptOnWrites: across seeded snapshot → write cycles
// with removals mixed in, statistics kept up to date by Add always equal
// a from-scratch recount, both on a run-backed (bulk-loaded) relation and
// on a map-backed one, and a snapshot's statistics never move after it
// is taken. Each snapshot warms its access paths the way the planner
// does — sometimes the statistics too, so the write after it keeps them
// incrementally, sometimes only the indexes, so the next recount runs
// over index runs that carry tails.
func TestSnapshotStatsKeptOnWrites(t *testing.T) {
	const objects = 24
	for seed := int64(1); seed <= 6; seed++ {
		for _, runBacked := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed%d/runBacked=%v", seed, runBacked), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				base := distinctTriples(rng, objects, 150)
				var s *Store
				if runBacked {
					s = runBackedStore(t, objects, base)
				} else {
					s = NewStore()
					for i := 0; i < objects; i++ {
						s.Intern(fmt.Sprintf("o%d", i))
					}
					for _, tr := range base {
						s.AddTriple("E", tr)
					}
				}
				type frozen struct {
					snap  *Store
					stats RelStats
				}
				var snaps []frozen
				kept := 0
				for cycle := 0; cycle < 30; cycle++ {
					snap := s.Snapshot()
					r := snap.Relation("E")
					for perm := SPO; perm < numPerms; perm++ {
						r.Index(perm)
					}
					if rng.Intn(4) > 0 {
						snaps = append(snaps, frozen{snap, snap.Stats().Rel("E")})
					}
					for op := 0; op < 1+rng.Intn(40); op++ {
						tr := randTriple(rng, objects)
						if rng.Intn(25) == 0 {
							s.RemoveTriple("E", tr)
						} else {
							s.AddTriple("E", tr)
						}
						live := s.Relation("E")
						if st, ok := live.CachedStats(); ok {
							kept++
							if want := recount(live); st != want {
								t.Fatalf("cycle %d op %d: kept stats %+v, recount %+v", cycle, op, st, want)
							}
						}
						if got, want := live.Stats(), recount(live); got != want {
							t.Fatalf("cycle %d op %d: Stats %+v, recount %+v", cycle, op, got, want)
						}
					}
					for _, f := range snaps {
						if got := f.snap.Relation("E").Stats(); got != f.stats {
							t.Fatalf("cycle %d: a frozen snapshot's stats moved from %+v to %+v", cycle, f.stats, got)
						}
						if got := recount(f.snap.Relation("E")); got != f.stats {
							t.Fatalf("cycle %d: a frozen snapshot's content moved: %+v, stats %+v", cycle, got, f.stats)
						}
					}
				}
				if kept == 0 {
					t.Fatal("no write kept its statistics incrementally")
				}
			})
		}
	}
}

// TestMutationRunBackedMatchesMapBacked feeds a bulk-loaded (map-free,
// fully indexed) relation and a map-backed twin the same seeded adds,
// clones and removals, and compares every read after each step. The
// run-backed relation must stay map-free until its first Remove, which
// materializes the map.
func TestMutationRunBackedMatchesMapBacked(t *testing.T) {
	const objects = 20
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := distinctTriples(rng, objects, 40+rng.Intn(200))
		run := runBackedStore(t, objects, base).Relation("E")
		twin := RelationOf(base...)
		removed := false
		for step := 0; step < 600; step++ {
			tr := randTriple(rng, objects)
			switch k := rng.Intn(100); {
			case k < 2:
				// Clone both: the clone must read the same and the
				// original must not see the clone's writes.
				rc, tc := run.Clone(), twin.Clone()
				extra := randTriple(rng, objects)
				if rc.Add(extra) != tc.Add(extra) {
					t.Fatalf("seed %d step %d: clone Add disagrees", seed, step)
				}
				compareRelations(t, rc, tc, objects)
				compareRelations(t, run, twin, objects)
				run, twin = rc, tc
			case k < 5 && step > 300:
				if run.Remove(tr) != twin.Remove(tr) {
					t.Fatalf("seed %d step %d: Remove(%v) disagrees", seed, step, tr)
				}
				removed = true
			default:
				if run.Add(tr) != twin.Add(tr) {
					t.Fatalf("seed %d step %d: Add(%v) disagrees", seed, step, tr)
				}
			}
			if run.RunBacked() == removed {
				t.Fatalf("seed %d step %d: RunBacked = %v after removals = %v", seed, step, run.RunBacked(), removed)
			}
			if step%7 == 0 {
				compareRelations(t, run, twin, objects)
			}
		}
		compareRelations(t, run, twin, objects)
	}
}

// compareRelations checks every read path of a against b.
func compareRelations(t *testing.T, a, b *Relation, objects int) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	if !slices.Equal(a.Triples(), b.Triples()) {
		t.Fatalf("Triples differ")
	}
	sortedOf := func(ts []Triple) []Triple {
		ts = slices.Clone(ts)
		slices.SortFunc(ts, cmpTriple)
		return ts
	}
	if !slices.Equal(sortedOf(a.Slice()), b.Triples()) {
		t.Fatalf("Slice differs")
	}
	var each []Triple
	a.ForEach(func(t Triple) { each = append(each, t) })
	if !slices.Equal(sortedOf(each), b.Triples()) {
		t.Fatalf("ForEach differs")
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("Equal disagrees")
	}
	for _, tr := range b.Triples() {
		if !a.Has(tr) {
			t.Fatalf("Has(%v) = false", tr)
		}
	}
	for i := 0; i < 30; i++ {
		tr := Triple{ID(i % objects), ID(i * 7 % objects), ID(i * 3 % objects)}
		if a.Has(tr) != b.Has(tr) {
			t.Fatalf("Has(%v) disagrees", tr)
		}
	}
	for perm := SPO; perm < numPerms; perm++ {
		for id := ID(0); id < ID(objects)+1; id++ {
			if ga, gb := sortedOf(a.Index(perm).Match(id)), sortedOf(b.Index(perm).Match(id)); !slices.Equal(ga, gb) {
				t.Fatalf("%v Match(%d): %v vs %v", perm, id, ga, gb)
			}
			if ca, cb := a.Index(perm).MatchCount(id), b.Index(perm).MatchCount(id); ca != cb {
				t.Fatalf("%v MatchCount(%d): %d vs %d", perm, id, ca, cb)
			}
		}
		if !slices.Equal(BuildIndex(a, perm).Triples(), BuildIndex(b, perm).Triples()) {
			t.Fatalf("%v BuildIndex differs", perm)
		}
	}
	if a.Stats() != recount(b) {
		t.Fatalf("Stats %+v vs recount %+v", a.Stats(), recount(b))
	}
}

// TestConcurrentRunBackedSnapshotReaders: snapshot readers of a
// bulk-loaded store hammer every read path while a writer keeps adding
// batches to the live store. Each snapshot must keep reading exactly the
// content it was taken at, and the live relation must stay map-free.
// Run under -race.
func TestConcurrentRunBackedSnapshotReaders(t *testing.T) {
	const objects = 30
	rng := rand.New(rand.NewSource(7))
	s := runBackedStore(t, objects, distinctTriples(rng, objects, 400))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				r := snap.Relation("E")
				want := r.Len()
				ts := slices.Clone(r.Triples())
				for round := 0; round < 3; round++ {
					n := 0
					r.ForEach(func(Triple) { n++ })
					st := r.Stats()
					if n != want || len(r.Slice()) != want || st.Triples != want || !slices.Equal(r.Triples(), ts) {
						errs <- fmt.Errorf("snapshot at %d triples read %d/%d/%d", want, n, len(r.Slice()), st.Triples)
						return
					}
					for _, tr := range ts[:min(len(ts), 50)] {
						if !r.Has(tr) || len(r.Index(OSP).Match(tr[2])) == 0 {
							errs <- fmt.Errorf("snapshot lost %v", tr)
							return
						}
					}
					if !r.Equal(r.Clone()) {
						errs <- fmt.Errorf("snapshot differs from its clone")
						return
					}
				}
			}
		}()
	}
	for batch := 0; batch < 60; batch++ {
		ops := make([]Op, 0, 20)
		for i := 0; i < 20; i++ {
			tr := randTriple(rng, objects)
			ops = append(ops, Op{Rel: "E", S: s.Name(tr[0]), P: s.Name(tr[1]), O: s.Name(tr[2])})
		}
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !s.Relation("E").RunBacked() {
		t.Error("the live relation built a membership map")
	}
}

// TestStatsRecountReadsIndexRuns: counting a fully indexed relation
// from scratch reads group boundaries off its index runs, so it
// allocates nothing but the cached result — counting through maps would
// allocate three maps per relation.
func TestStatsRecountReadsIndexRuns(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(3))
	rels := make([]*Relation, n)
	for i := range rels {
		rels[i] = runBackedStore(t, 30, distinctTriples(rng, 30, 300)).Relation("E")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range rels {
		r.Stats()
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > 2*n {
		t.Errorf("%d allocations for %d recounts, want at most %d", allocs, n, 2*n)
	}
	for _, r := range rels {
		if got, want := r.Stats(), recount(r); got != want {
			t.Fatalf("Stats %+v, recount %+v", got, want)
		}
	}
}
