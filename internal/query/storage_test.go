package query

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/triplestore"
)

// TestQuerierStoragePinning: a Querier over a disk engine must answer
// identically to one over a plain store built from the same ops, keep
// exactly one generation pinned as the store advances (old pins are
// released when it re-snapshots), and release its last pin on Close.
func TestQuerierStoragePinning(t *testing.T) {
	eng, err := storage.Open(t.TempDir(),
		storage.WithSyncPolicy(storage.SyncNone), storage.WithFlushBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mem := triplestore.NewStore()
	q := NewStorage(eng)
	qMem := New(mem)

	for round := 0; round < 8; round++ {
		var ops []triplestore.Op
		for i := 0; i < 40; i++ {
			ops = append(ops, triplestore.Op{
				Rel: "E",
				S:   fmt.Sprintf("n%d", (round*17+i)%30),
				P:   "p",
				O:   fmt.Sprintf("n%d", (round*11+i*3)%30),
			})
		}
		if _, err := eng.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		got, err := q.Query(LangRPQ, "p+")
		if err != nil {
			t.Fatal(err)
		}
		want, err := qMem.Query(LangRPQ, "p+")
		if err != nil {
			t.Fatal(err)
		}
		gp, _ := q.Pairs(got)
		wp, _ := qMem.Pairs(want)
		if fmt.Sprint(gp) != fmt.Sprint(wp) {
			t.Fatalf("round %d: disk answered %d pairs, mem %d", round, len(gp), len(wp))
		}
		// One live generation plus at most the querier's single pin: old
		// pins must not accumulate as the version advances.
		if n := eng.Stats().PinnedGenerations; n > 2 {
			t.Fatalf("round %d: %d generations pinned", round, n)
		}
	}

	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().PinnedGenerations; n > 1 {
		t.Fatalf("%d generations still pinned after Close", n)
	}
}

// TestQuerierColdStorage runs the query tier over a disk engine opened
// with a zero read budget: every index probe the prepared plans make is
// served from segment blocks. Answers must match an in-memory querier
// over the same data, writes must keep working (force-materializing the
// touched relation), and the querier must release its pin before the
// engine closes — the engine unmaps its segments at Close, so a pin
// outliving it would read unmapped memory.
func TestQuerierColdStorage(t *testing.T) {
	mem := triplestore.NewStore()
	var ops []triplestore.Op
	for i := 0; i < 300; i++ {
		ops = append(ops, triplestore.Op{
			Rel: "E",
			S:   fmt.Sprintf("n%d", i%40),
			P:   fmt.Sprintf("p%d", i%3),
			O:   fmt.Sprintf("n%d", (i*7+3)%40),
		})
	}
	if _, err := mem.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	eng, err := storage.CreateFrom(t.TempDir(), mem,
		storage.WithSyncPolicy(storage.SyncNone), storage.WithReadBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := NewStorage(eng)
	qMem := New(mem)

	for _, src := range []string{"p0+", "p1/p2", "p0|p1"} {
		got, err := q.Query(LangRPQ, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := qMem.Query(LangRPQ, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		gp, _ := q.Pairs(got)
		wp, _ := qMem.Pairs(want)
		if fmt.Sprint(gp) != fmt.Sprint(wp) {
			t.Fatalf("%s: cold answered %d pairs, mem %d", src, len(gp), len(wp))
		}
	}
	res := eng.Stats().Residency
	if res.ColdProbes == 0 && res.ColdDecodes == 0 {
		t.Fatalf("residency = %+v: queries never touched the segment-read path", res)
	}
	if res.Promotions != 0 {
		t.Fatalf("residency = %+v: budget 0 must not promote on reads", res)
	}

	// A write through the engine force-materializes E; queries keep
	// answering and see the new edge on a fresh snapshot.
	if _, err := eng.ApplyBatch([]triplestore.Op{{Rel: "E", S: "n0", P: "p9", O: "n1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ApplyBatch([]triplestore.Op{{Rel: "E", S: "n0", P: "p9", O: "n1"}}); err != nil {
		t.Fatal(err)
	}
	got, err := q.Query(LangRPQ, "p9")
	if err != nil {
		t.Fatal(err)
	}
	if gp, _ := q.Pairs(got); len(gp) != 1 {
		t.Fatalf("p9 after write: %v pairs, want 1", gp)
	}
	if res := eng.Stats().Residency; res.Promotions != 1 {
		t.Fatalf("residency = %+v: want the written relation force-promoted", res)
	}

	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().PinnedGenerations; n > 1 {
		t.Fatalf("%d generations still pinned after querier Close", n)
	}
}

// TestQuerierColdPointLookup pins, with counts rather than time, that a
// point lookup on a zero-budget store never decodes the relation: a
// constant selection and a join whose constant side is a lookup are
// answered by block probes alone, leave the full-decode counter where
// it was and promote nothing.
func TestQuerierColdPointLookup(t *testing.T) {
	mem := triplestore.NewStore()
	var ops []triplestore.Op
	for i := 0; i < 300; i++ {
		ops = append(ops, triplestore.Op{
			Rel: "E",
			S:   fmt.Sprintf("n%d", i%40),
			P:   fmt.Sprintf("p%d", i%3),
			O:   fmt.Sprintf("n%d", (i*7+3)%40),
		})
	}
	if _, err := mem.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	eng, err := storage.CreateFrom(t.TempDir(), mem,
		storage.WithSyncPolicy(storage.SyncNone), storage.WithReadBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := NewStorage(eng)
	defer q.Close()
	qMem := New(mem)

	// Planning reads the relation's statistics, computed (one full
	// decode) once per relation; plan a first query so the counts below
	// see the lookups alone.
	if _, err := q.Query(LangTriAL, `sigma[1="n1"](E)`); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats().Residency
	for _, src := range []string{
		`sigma[1="n0"](E)`,
		`sigma[3="n5"](E)`,
		`join[1,2,3'; 3=1', 1="n0", 2'="p1"](E, E)`,
	} {
		if plan, err := q.Explain(LangTriAL, src); err != nil || !strings.Contains(plan, "lookup E") {
			t.Fatalf("%s: plan has no lookup (err %v):\n%s", src, err, plan)
		}
		got, err := q.Query(LangTriAL, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := qMem.Query(LangTriAL, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if want.Len() == 0 || !got.Equal(want) {
			t.Fatalf("%s: cold answered %d triples, mem %d", src, got.Len(), want.Len())
		}
	}
	after := eng.Stats().Residency
	if d := after.ColdDecodes - before.ColdDecodes; d != 0 {
		t.Errorf("point lookups decoded the relation %d times, want 0", d)
	}
	if after.ColdProbes <= before.ColdProbes {
		t.Errorf("cold probes %d -> %d: lookups never reached the segment blocks", before.ColdProbes, after.ColdProbes)
	}
	if after.Promotions != 0 {
		t.Errorf("residency = %+v: point lookups promoted a relation", after)
	}
}

// TestQuerierStorageStatsAfterWrites pins, with counts rather than
// time, that planning after a write does not recount the relation: on a
// store opened from a checkpoint, the first query computes the
// relation's statistics once, and every later batch keeps them up to
// date beside the permutation indexes, so twenty write-then-read cycles
// — each read planned against a new snapshot — add no full pass. The
// live relation stays run-backed throughout: no write builds a
// membership map.
func TestQuerierStorageStatsAfterWrites(t *testing.T) {
	mem := triplestore.NewStore()
	var ops []triplestore.Op
	for i := 0; i < 300; i++ {
		ops = append(ops, triplestore.Op{
			Rel: "E",
			S:   fmt.Sprintf("n%d", i%40),
			P:   fmt.Sprintf("p%d", i%3),
			O:   fmt.Sprintf("n%d", (i*7+3)%40),
		})
	}
	if _, err := mem.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	created, err := storage.CreateFrom(dir, mem, storage.WithSyncPolicy(storage.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	if err := created.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err := storage.Open(dir, storage.WithSyncPolicy(storage.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := NewStorage(eng)
	defer q.Close()
	store := eng.Store()

	if _, err := q.Query(LangTriAL, `sigma[1="n1"](E)`); err != nil {
		t.Fatal(err)
	}
	if got := store.RelationStatsPasses(); got != 1 {
		t.Fatalf("first query: %d relation statistics passes, want 1", got)
	}
	for round := 0; round < 20; round++ {
		subj := fmt.Sprintf("new%d", round)
		batch := []triplestore.Op{
			{Rel: "E", S: subj, P: "p0", O: "n1"},
			{Rel: "E", S: subj, P: fmt.Sprintf("q%d", round), O: fmt.Sprintf("m%d", round)},
		}
		if _, err := eng.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		got, err := q.Query(LangTriAL, fmt.Sprintf(`sigma[1="%s"](E)`, subj))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != len(batch) {
			t.Fatalf("round %d: read back %d triples, want %d", round, got.Len(), len(batch))
		}
		if n := store.RelationStatsPasses(); n != 1 {
			t.Fatalf("round %d: %d relation statistics passes, want 1", round, n)
		}
		if !store.Relation("E").RunBacked() {
			t.Fatalf("round %d: the live relation built a membership map", round)
		}
	}
	want := store.Relation("E").Len()
	if st := store.Snapshot().Stats().Rel("E"); st.Triples != want {
		t.Errorf("kept statistics count %d triples, relation has %d", st.Triples, want)
	}
}

// TestQuerierCloseIsNoOpWithoutBackend pins that Close on a plain
// Querier is safe and idempotent.
func TestQuerierCloseIsNoOpWithoutBackend(t *testing.T) {
	q := New(triplestore.NewStore())
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}
