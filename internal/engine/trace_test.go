package engine

import (
	"testing"

	"repro/internal/genstore"
	"repro/internal/obs"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// TestExecTraceOperators: a traced execution must produce one span per
// physical operator, with output cardinalities matching the actual
// result and the same relation an untraced Exec computes.
func TestExecTraceOperators(t *testing.T) {
	s := genstore.Chain(64, 2)
	e := New(s)
	p, err := e.Prepare(trial.Example2(genstore.RelE))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}

	root := obs.StartSpan("execute")
	got, err := p.ExecTrace(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("traced result (%d triples) differs from untraced (%d)", got.Len(), want.Len())
	}

	kids := root.Children()
	if len(kids) != 1 {
		t.Fatalf("root has %d children, want 1 (the plan root)", len(kids))
	}
	join := kids[0]
	if join.Name() != "join:index-right" && join.Name() != "join:index-left" && join.Name() != "join:hash" {
		t.Errorf("plan-root span = %q, want a join", join.Name())
	}
	if out, ok := join.Attr("out").(int); !ok || out != want.Len() {
		t.Errorf("join out attr = %v, want %d", join.Attr("out"), want.Len())
	}
	if join.Attr("in_left") == nil || join.Attr("in_right") == nil {
		t.Error("join span lacks input cardinalities")
	}
	if join.Duration() <= 0 {
		t.Error("join span has no duration")
	}
	// Scans execute under the join.
	if sc := root.Find("scan"); sc == nil {
		t.Errorf("no scan span in trace:\n%s", root.Tree())
	}
}

// TestExecTraceStarRounds: the semi-naive star records its round count
// and per-round delta sizes.
func TestExecTraceStarRounds(t *testing.T) {
	s := genstore.Chain(20, 1)
	e := New(s)
	// The 1!=3' atom defeats the BFS reach shape, forcing the delta
	// fixpoint (the same trick the sharded bench workloads use).
	x, err := trial.Parse("rstar[1,2,3'; 3=1',1!=3'](E)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	root := obs.StartSpan("execute")
	if _, err := p.ExecTrace(root); err != nil {
		t.Fatal(err)
	}
	root.End()
	star := root.Children()[0]
	if star.Name() != "star:semi-naive delta-index" {
		t.Fatalf("plan-root span = %q, want the semi-naive star (tree:\n%s)", star.Name(), root.Tree())
	}
	rounds, ok := star.Attr("rounds").(int)
	if !ok || rounds < 2 {
		t.Errorf("rounds attr = %v, want >= 2", star.Attr("rounds"))
	}
	deltas, ok := star.Attr("deltas").([]int)
	if !ok || len(deltas) == 0 || deltas[0] != 20 {
		t.Errorf("deltas attr = %v, want first round = 20 seeds", star.Attr("deltas"))
	}
	if seeds, ok := star.Attr("seeds").(int); !ok || seeds != 20 {
		t.Errorf("seeds attr = %v, want 20", star.Attr("seeds"))
	}
}

// TestExecTraceSharded: partition-parallel operators record their mode
// and per-shard task timings, and stay byte-identical to the flat
// engine while traced.
func TestExecTraceSharded(t *testing.T) {
	s := genstore.Chain(100, 1)
	ss := triplestore.Shard(s, 4)
	e := NewSharded(ss)
	x, err := trial.Parse("rstar[1,2,3'; 3=1',1!=3'](E)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := New(s).Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flat.Exec()
	if err != nil {
		t.Fatal(err)
	}

	root := obs.StartSpan("execute")
	got, err := p.ExecTrace(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("traced sharded result (%d) differs from flat (%d)", got.Len(), want.Len())
	}
	star := root.Children()[0]
	if star.Name() != "star:semi-naive delta-index sharded(4)" {
		t.Fatalf("span = %q (tree:\n%s)", star.Name(), root.Tree())
	}
	us, ok := star.Attr("shard_us").([]int64)
	if !ok || len(us) != 4 {
		t.Errorf("shard_us attr = %v, want 4 entries", star.Attr("shard_us"))
	}

	// A sharded index join records its probe mode.
	j, err := trial.Parse("join[1,2,3'; 3=1'](E, E)")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := e.Prepare(j)
	if err != nil {
		t.Fatal(err)
	}
	root = obs.StartSpan("execute")
	if _, err := pj.ExecTrace(root); err != nil {
		t.Fatal(err)
	}
	root.End()
	join := root.Children()[0]
	mode, _ := join.Attr("shard_mode").(string)
	if mode != "partition-probe" && mode != "broadcast-probe" {
		t.Errorf("shard_mode = %v (tree:\n%s)", join.Attr("shard_mode"), root.Tree())
	}
}

// TestTraceOverheadPathUntraced: with a nil span the traced entry point
// must behave identically (the ctx.run fast path).
func TestTraceOverheadPathUntraced(t *testing.T) {
	s := genstore.Grid(8, 8)
	e := New(s)
	p, err := e.Prepare(trial.ReachRight(genstore.RelE))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.ExecTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("ExecTrace(nil) differs from Exec")
	}
}

// TestExecTraceLookup: an index lookup traces as its own operator kind,
// naming the permutation it probed and how many triples matched before
// the residual condition.
func TestExecTraceLookup(t *testing.T) {
	s := genstore.Chain(20, 2)
	x, err := trial.Parse("sigma[2=p1,1!=o3](E)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(s).Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	root := obs.StartSpan("execute")
	got, err := p.ExecTrace(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	lk := root.Find("lookup")
	if lk == nil {
		t.Fatalf("no lookup span in trace:\n%s", root.Tree())
	}
	if lk.Attr("perm") != "POS" {
		t.Errorf("lookup perm attr = %v, want POS", lk.Attr("perm"))
	}
	matched, ok := lk.Attr("matched").(int)
	if !ok || matched < got.Len() || matched != s.Relation(genstore.RelE).Index(triplestore.POS).MatchCount(s.Lookup("p1")) {
		t.Errorf("lookup matched attr = %v for %d results", lk.Attr("matched"), got.Len())
	}
	if out, _ := lk.Attr("out").(int); out != got.Len() {
		t.Errorf("lookup out attr = %v, want %d", lk.Attr("out"), got.Len())
	}
	if _, ok := root.SelfTimes()["lookup"]; !ok {
		t.Errorf("self-time breakdown lacks the lookup kind: %v", root.SelfTimes())
	}
}
