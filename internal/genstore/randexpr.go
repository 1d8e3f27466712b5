package genstore

import (
	"math/rand"

	"repro/internal/trial"
)

// ExprOptions controls RandomExpr.
type ExprOptions struct {
	// Relations the expression may mention; must be nonempty.
	Relations []string
	// MaxDepth bounds the AST depth.
	MaxDepth int
	// EqualityOnly restricts all generated conditions to equalities,
	// producing TriAL= expressions (Proposition 4's fragment).
	EqualityOnly bool
	// AllowStar permits Kleene closures (TriAL* rather than TriAL).
	AllowStar bool
	// AllowValueConds permits η (data value) atoms.
	AllowValueConds bool
	// AllowUniverse permits the U primitive (and hence complements via
	// diff). U is cubic in the active domain, so large stores should
	// disable it.
	AllowUniverse bool
	// Constants, when nonempty, lets object atoms compare a position
	// with one of these object names (pos = "c" and pos != "c") — the
	// point lookups of RDF. Include a name the store lacks to cover
	// constants that resolve to nothing. Left empty, the generator draws
	// exactly the random stream it always has.
	Constants []string
}

// RandomExpr generates a random well-formed TriAL (or TriAL*) expression.
// It is used to differential-test the evaluation strategies against each
// other and against the Datalog translations.
func RandomExpr(rng *rand.Rand, opt ExprOptions) trial.Expr {
	if opt.MaxDepth < 1 {
		opt.MaxDepth = 1
	}
	return randExpr(rng, opt, opt.MaxDepth)
}

func randExpr(rng *rand.Rand, opt ExprOptions, depth int) trial.Expr {
	leaf := func() trial.Expr {
		if opt.AllowUniverse && rng.Intn(8) == 0 {
			return trial.U()
		}
		return trial.R(opt.Relations[rng.Intn(len(opt.Relations))])
	}
	if depth <= 1 {
		return leaf()
	}
	n := 6
	if opt.AllowStar {
		n = 7
	}
	switch rng.Intn(n) {
	case 0:
		return leaf()
	case 1:
		c := randCond(rng, opt, true)
		return trial.MustSelect(randExpr(rng, opt, depth-1), c)
	case 2:
		return trial.Union{L: randExpr(rng, opt, depth-1), R: randExpr(rng, opt, depth-1)}
	case 3:
		return trial.Diff{L: randExpr(rng, opt, depth-1), R: randExpr(rng, opt, depth-1)}
	case 4, 5:
		return trial.MustJoin(randExpr(rng, opt, depth-1), randOut(rng), randCond(rng, opt, false),
			randExpr(rng, opt, depth-1))
	default:
		return trial.MustStar(randExpr(rng, opt, depth-1), randOut(rng), randCond(rng, opt, false),
			rng.Intn(2) == 0)
	}
}

// RandomCyclicJoin generates a triangle- or diamond-shaped join cascade
// over the given relations: a 2-hop path join (out (a,b,c), condition
// 3=1′) closed back on itself with 3=1′ ∧ 1=3′ against either a single
// relation (triangle) or a second path (diamond). The root's output
// positions are randomized, and a residual inequality atom occasionally
// rides along, so the differential suites exercise the leapfrog
// triejoin's residual-condition path, not just pure variable bindings.
func RandomCyclicJoin(rng *rand.Rand, rels []string) trial.Join {
	rel := func() trial.Expr { return trial.R(rels[rng.Intn(len(rels))]) }
	eq := func(a, b trial.Pos) trial.ObjAtom { return trial.Eq(trial.P(a), trial.P(b)) }
	path := func() trial.Join {
		return trial.MustJoin(rel(), [3]trial.Pos{trial.L1, trial.L3, trial.R3},
			trial.Cond{Obj: []trial.ObjAtom{eq(trial.L3, trial.R1)}}, rel())
	}
	closing := trial.Cond{Obj: []trial.ObjAtom{eq(trial.L3, trial.R1), eq(trial.L1, trial.R3)}}
	if rng.Intn(3) == 0 {
		closing.Obj = append(closing.Obj, trial.ObjAtom{
			L:   trial.P(allPos[rng.Intn(6)]),
			R:   trial.P(allPos[rng.Intn(6)]),
			Neq: true,
		})
	}
	if rng.Intn(2) == 0 {
		return trial.MustJoin(path(), randOut(rng), closing, rel())
	}
	return trial.MustJoin(path(), randOut(rng), closing, path())
}

var allPos = []trial.Pos{trial.L1, trial.L2, trial.L3, trial.R1, trial.R2, trial.R3}

func randOut(rng *rand.Rand) [3]trial.Pos {
	return [3]trial.Pos{
		allPos[rng.Intn(6)],
		allPos[rng.Intn(6)],
		allPos[rng.Intn(6)],
	}
}

// randCond generates up to three condition atoms. leftOnly restricts
// positions to 1..3, as selections require.
func randCond(rng *rand.Rand, opt ExprOptions, leftOnly bool) trial.Cond {
	pool := allPos
	if leftOnly {
		pool = allPos[:3]
	}
	var c trial.Cond
	for i := rng.Intn(3); i > 0; i-- {
		neq := !opt.EqualityOnly && rng.Intn(3) == 0
		if opt.AllowValueConds && rng.Intn(3) == 0 {
			a := trial.ValAtom{
				L:         trial.RhoP(pool[rng.Intn(len(pool))]),
				R:         trial.RhoP(pool[rng.Intn(len(pool))]),
				Neq:       neq,
				Component: -1,
			}
			c.Val = append(c.Val, a)
		} else {
			a := trial.ObjAtom{
				L:   trial.P(pool[rng.Intn(len(pool))]),
				R:   trial.P(pool[rng.Intn(len(pool))]),
				Neq: neq,
			}
			if len(opt.Constants) > 0 && rng.Intn(2) == 0 {
				a.R = trial.Obj(opt.Constants[rng.Intn(len(opt.Constants))])
			}
			c.Obj = append(c.Obj, a)
		}
	}
	return c
}
