package engine

import (
	"strings"
	"testing"

	"repro/internal/genstore"
	"repro/internal/trial"
)

// The tests in this file pin the physical features PR 3 added around the
// logical optimizer: projection nodes for identity self-joins,
// common-subexpression sharing, hoisted star seed filters, side-only
// join prefilters, and the rewrite trace on Explain.

func mustParseT(t *testing.T, q string) trial.Expr {
	t.Helper()
	x, err := trial.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return x
}

// explainFor plans x on a fresh chain store and returns the rendering.
func explainFor(t *testing.T, q string, opts ...Option) string {
	t.Helper()
	e := New(genstore.Chain(12, 2), opts...)
	plan, err := e.Explain(mustParseT(t, q))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestProjectionPlan(t *testing.T) {
	// The rearrange device compiles to a linear projection, not a join.
	plan := explainFor(t, "join[1,1,3; 1=1',2=2',3=3'](E, E)")
	if !strings.Contains(plan, "project[1,1,3]") {
		t.Errorf("identity self-join did not plan as projection:\n%s", plan)
	}
	if strings.Contains(plan, "hash") || strings.Contains(plan, "index-") {
		t.Errorf("projection plan still contains a join strategy:\n%s", plan)
	}
	// Result parity with the reference evaluator on the same shape.
	s := genstore.Chain(12, 2)
	x := mustParseT(t, "join[3,2,1; 1=1',2=2',3=3'](E, E)")
	want, err := trial.NewEvaluator(s).Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(s).Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("projection result %d triples, evaluator %d", got.Len(), want.Len())
	}
}

func TestCommonSubexpressionSharing(t *testing.T) {
	// The same composite subexpression twice: compiled once, shared.
	// WithoutOptimize keeps the duplicate union arms in the tree, so the
	// sharing must come from the planner, not the rewriter.
	plan := explainFor(t, "diff(sigma[1!=3](union(E, sigma[2=p0](E))), sigma[1!=3](union(E, sigma[2=p0](E))))",
		WithoutOptimize())
	if !strings.Contains(plan, "shared#0") {
		t.Errorf("duplicate subtrees were not shared:\n%s", plan)
	}
	// diff(x, x) with shared nodes must still evaluate (to empty).
	s := genstore.Chain(12, 2)
	r, err := New(s, WithoutOptimize()).Eval(
		mustParseT(t, "diff(sigma[1!=3](union(E, sigma[2=p0](E))), sigma[1!=3](union(E, sigma[2=p0](E))))"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("diff(x, x) = %d triples, want 0", r.Len())
	}
}

func TestStarSeedFilterPlan(t *testing.T) {
	// σ over the star's invariant positions 1 and 2 hoists into the
	// fixpoint as a seed filter (and the star stays BFS-shaped).
	plan := explainFor(t, "sigma[1=o0](rstar[1,2,3'; 3=1'](E))")
	if !strings.Contains(plan, "seed-filter=[1=o0]") {
		t.Errorf("selection over invariant positions was not hoisted:\n%s", plan)
	}
	if strings.Contains(plan, "filter [1=o0]") {
		t.Errorf("hoisted selection still planned as a post-filter:\n%s", plan)
	}
	// σ over position 3 is not invariant: it must stay a post-filter.
	plan = explainFor(t, "sigma[3=o0](rstar[1,2,3'; 3=1'](E))")
	if strings.Contains(plan, "seed-filter") {
		t.Errorf("non-invariant selection was hoisted:\n%s", plan)
	}
	// Differential: hoisted and non-hoisted agree with the evaluator —
	// including the left-closure orientations, which the unoptimized
	// engine plans without the optimizer's lstar→rstar canonicalization.
	for _, q := range []string{
		"sigma[1=o0](rstar[1,2,3'; 3=1'](E))",
		"sigma[1=o2,2=p0](rstar[1,2,3'; 3=1',2=2'](E))",
		"sigma[3=o5](rstar[1,2,3'; 3=1'](E))",
		// Non-reach shape with an invariant position 1 (Out[0]=1).
		"sigma[1=o0](rstar[1,3,3'; 3=1'](E))",
		// Left reach star: positions 1 and 2 stay invariant (BFS path).
		"sigma[1=o0](lstar[1,2,3'; 3=1'](E))",
		"sigma[2=p1](lstar[1,2,3'; 3=1',2=2'](E))",
		// Left non-reach star: position 3 (Out[2]=3') is the invariant.
		"sigma[3=o5](lstar[1',2,3'; 3=1'](E))",
	} {
		s := genstore.Chain(10, 2)
		x := mustParseT(t, q)
		want, err := trial.NewEvaluator(s).Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range []*Engine{New(s), New(s, WithoutOptimize())} {
			got, err := e.Eval(x)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: engine[%d] %d triples, evaluator %d", q, i, got.Len(), want.Len())
			}
		}
	}
}

func TestJoinSidePrefilterPlan(t *testing.T) {
	// 2=p0 mentions only the left side, 2'=p1 only the right: both become
	// prefilters on the join node.
	q := "join[1,2,3'; 3=1',2=p0,2'=p1](E, E)"
	plan := explainFor(t, q, WithoutOptimize())
	if !strings.Contains(plan, "prefilter-left=[2=p0]") || !strings.Contains(plan, "prefilter-right=[2=p1]") {
		t.Errorf("side-only atoms did not become prefilters:\n%s", plan)
	}
	s := genstore.Chain(12, 2)
	x := mustParseT(t, q)
	want, err := trial.NewEvaluator(s).Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(s).Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("prefiltered join: engine %d triples, evaluator %d", got.Len(), want.Len())
	}
}

func TestExplainIncludesRewriteTrace(t *testing.T) {
	plan := explainFor(t, "sigma[1=2](union(E, E))")
	if !strings.Contains(plan, "rewrites[v") {
		t.Errorf("Explain missing rewrite trace:\n%s", plan)
	}
	if !strings.Contains(plan, "dedupe-union") {
		t.Errorf("trace does not mention the fired rule:\n%s", plan)
	}
	plan = explainFor(t, "E", WithoutOptimize())
	if !strings.Contains(plan, "rewrites[v1]: off") {
		t.Errorf("WithoutOptimize Explain should say rewrites are off:\n%s", plan)
	}
}

func TestPreparedTrace(t *testing.T) {
	e := New(genstore.Chain(8, 1))
	p, err := e.Prepare(mustParseT(t, "sigma[1=2](union(E, E))"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace() == nil || !p.Trace().Changed() {
		t.Errorf("Prepared.Trace = %v, want recorded rewrites", p.Trace())
	}
	p, err = New(genstore.Chain(8, 1), WithoutOptimize()).Prepare(mustParseT(t, "E"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace() != nil {
		t.Errorf("WithoutOptimize Prepared.Trace = %v, want nil", p.Trace())
	}
}

func TestConstantSelectionLookupPlan(t *testing.T) {
	// σ with a constant equality over a base scan probes the permutation
	// index leading on the constant's position.
	for _, c := range []struct{ q, perm string }{
		{"sigma[1=o3](E)", "lookup E SPO [1=o3]"},
		{"sigma[2=p0](E)", "lookup E POS [2=p0]"},
		{"sigma[3=o4](E)", "lookup E OSP [3=o4]"},
		{"sigma[o4=3,1!=2](E)", "lookup E OSP [o4=3,1!=2]"},
	} {
		plan := explainFor(t, c.q)
		if !strings.Contains(plan, c.perm) || strings.Contains(plan, "filter") {
			t.Errorf("%s: want %q, got:\n%s", c.q, c.perm, plan)
		}
	}
	// Inequalities and constant selections over derived inputs stay
	// filters.
	for _, c := range []struct {
		q    string
		opts []Option
	}{
		{"sigma[1!=o3](E)", nil},
		{"sigma[1=o3](union(E, sigma[2!=p0](E)))", []Option{WithoutOptimize()}},
	} {
		plan := explainFor(t, c.q, c.opts...)
		if strings.Contains(plan, "lookup") || !strings.Contains(plan, "filter [") {
			t.Errorf("%s: want a filter, got:\n%s", c.q, plan)
		}
	}
	// Results agree with the evaluator, including a constant the store
	// does not know (an empty lookup) and a residual atom the lookup
	// re-checks per match.
	s := genstore.Chain(12, 2)
	for _, q := range []string{
		"sigma[1=o3](E)", "sigma[2=p1](E)", "sigma[3=o4](E)", "sigma[1=nowhere](E)",
		"sigma[2=p0,1=o2](E)", "sigma[2=p0,3!=o1](E)", "sigma[1=o3,3=o3](E)",
	} {
		x := mustParseT(t, q)
		want, err := trial.NewEvaluator(s).Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(s).Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: engine %d triples, evaluator %d", q, got.Len(), want.Len())
		}
	}
}

func TestJoinLookupSidePlan(t *testing.T) {
	// The typed point-join template: the left side's constant becomes a
	// subject lookup probing the right base relation's index, and the
	// right side stays a scan (the indexed side) rather than a predicate
	// lookup feeding a hash build.
	s, err := genstore.PropertyGraph(1, 2000, 8000).Build()
	if err != nil {
		t.Fatal(err)
	}
	q := `join[1,2,3'; 3=1', 1="e7", 2'="type"](E, E)`
	x := mustParseT(t, q)
	plan, err := New(s).Explain(x)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(plan), "\n")
	if len(lines) != 4 || !strings.Contains(lines[1], "index-right") ||
		!strings.Contains(lines[2], "lookup E SPO [1=e7]") || !strings.Contains(lines[3], "scan E") {
		t.Errorf("want index-right over a lookup left side and a scanned right side, got:\n%s", plan)
	}
	want, err := trial.NewEvaluator(s).Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("template answers empty; pick a subject with typed neighbours")
	}
	// Forced join policies keep both sides as written, so their routes
	// keep exercising the side-only prefilters.
	for _, p := range []JoinPolicy{JoinAuto, JoinNoWCO, JoinForceMerge, JoinForceLeapfrog} {
		e := New(s, WithJoinPolicy(p))
		if p != JoinAuto {
			plan, err := e.Explain(x)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(plan, "lookup") {
				t.Errorf("policy %d swapped a join side for a lookup:\n%s", p, plan)
			}
			if p == JoinForceMerge && !strings.Contains(plan, "merge prefilter-left=[1=e7] prefilter-right=[2=type]") {
				t.Errorf("forced merge lost its prefilters:\n%s", plan)
			}
		}
		got, err := e.Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("policy %d: engine %d triples, evaluator %d", p, got.Len(), want.Len())
		}
	}
}
