package genstore

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trial"
	"repro/internal/triplestore"
)

func TestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Random(rng, 10, 40, 3)
	if s.NumObjects() != 10 {
		t.Errorf("objects = %d", s.NumObjects())
	}
	if s.Size() != 40 {
		t.Errorf("triples = %d", s.Size())
	}
	// Values drawn from ≤3 distinct values.
	seen := map[string]bool{}
	for i := 0; i < s.NumObjects(); i++ {
		seen[s.Value(triplestore.ID(i)).Key()] = true
	}
	if len(seen) > 3 {
		t.Errorf("distinct values = %d, want ≤ 3", len(seen))
	}
	// Requesting more triples than n³ caps out.
	s2 := Random(rng, 2, 100, 0)
	if s2.Size() != 8 {
		t.Errorf("capped store has %d triples, want 8", s2.Size())
	}
}

func TestChainCycleGrid(t *testing.T) {
	if s := Chain(10, 3); s.Size() != 10 {
		t.Errorf("chain size = %d", s.Size())
	}
	if s := Chain(10, 0); s.Size() != 10 { // numLabels clamped to 1
		t.Errorf("chain with 0 labels size = %d", s.Size())
	}
	if s := Cycle(8); s.Size() != 8 {
		t.Errorf("cycle size = %d", s.Size())
	}
	s := Grid(4, 3)
	// Right edges: 3 per row × 3 rows; down edges: 4 per row-pair × 2.
	if s.Size() != 3*3+4*2 {
		t.Errorf("grid size = %d", s.Size())
	}
}

func TestLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := Layered(rng, 4, 5, 2)
	if s.Size() == 0 || s.Size() > 3*5*2 {
		t.Errorf("layered size = %d", s.Size())
	}
}

func TestTransportGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Transport(rng, 20, 3, 2)
	// Q must be evaluable and nonempty (each service belongs to a company).
	ev := trial.NewEvaluator(s)
	r, err := ev.Eval(trial.QueryQ(RelE))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Error("Q empty on transport network")
	}
}

func TestSocialGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := Social(rng, 10, 25, 3, 4)
	if s.Size() != 25 {
		t.Errorf("social size = %d", s.Size())
	}
	// Every edge's middle object has a connection-shaped value: null name
	// (component 0) and non-null type (component 3).
	bad := 0
	s.Relation(RelE).ForEach(func(tr triplestore.Triple) {
		v := s.Value(tr[1])
		if len(v) != 5 || !v[0].Null || v[3].Null {
			bad++
		}
	})
	if bad != 0 {
		t.Errorf("%d edges have malformed connection values", bad)
	}
}

func TestRandomExprAlwaysEvaluable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opts := ExprOptions{
		Relations:       []string{RelE},
		MaxDepth:        4,
		AllowStar:       true,
		AllowValueConds: true,
		AllowUniverse:   true,
	}
	for i := 0; i < 150; i++ {
		s := Random(rng, 5, 10, 2)
		e := RandomExpr(rng, opts)
		ev := trial.NewEvaluator(s)
		if _, err := ev.Eval(e); err != nil {
			t.Fatalf("generated unevaluable expression %s: %v", e, err)
		}
	}
}

func TestRandomExprEqualityOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	opts := ExprOptions{Relations: []string{RelE}, MaxDepth: 4, EqualityOnly: true, AllowStar: true}
	for i := 0; i < 100; i++ {
		e := RandomExpr(rng, opts)
		if !trial.EqualityOnly(e) {
			t.Fatalf("EqualityOnly option produced %s", e)
		}
	}
}

// TestRandomExprStreamStable pins the generator's output for a fixed
// seed: options that are left unset (Constants) must not draw from the
// random stream, or every seeded differential corpus would silently
// change. The digest is of 500 expressions rendered one per line.
func TestRandomExprStreamStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opts := ExprOptions{Relations: []string{RelE, "F"}, MaxDepth: 4, AllowStar: true, AllowValueConds: true, AllowUniverse: true}
	h := sha256.New()
	for i := 0; i < 500; i++ {
		fmt.Fprintln(h, RandomExpr(rng, opts).String())
	}
	const want = "3fbf25b0721b2f773d26ca572d9734b69099c48efbd0627f17811cd045a972fd"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("expression stream digest %s, want %s", got, want)
	}
}

func TestRandomExprConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := ExprOptions{Relations: []string{RelE}, MaxDepth: 3, Constants: []string{"o1", "absent"}}
	consts := 0
	for i := 0; i < 200; i++ {
		if s := RandomExpr(rng, opts).String(); strings.Contains(s, "=o1") || strings.Contains(s, "=absent") {
			consts++
		}
	}
	if consts == 0 {
		t.Error("Constants set, but no expression compares a position with a constant")
	}
}
