package engine

import (
	"repro/internal/obs"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

func (n *scanNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	return n.rel, nil
}

func (n *lookupNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	var ts []triplestore.Triple
	if n.id != triplestore.NoID {
		ts = n.rel.Match(n.perm, n.id)
	}
	ctx.trace.SetAttr("perm", n.perm.String())
	ctx.trace.SetAttr("matched", len(ts))
	out := triplestore.NewRelationCap(len(ts))
	for _, t := range ts {
		if n.cc.Holds(t, t) {
			out.Add(t)
		}
	}
	return out, nil
}

func (n *universeNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	return ctx.e.Universe(), nil
}

func (n *filterNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	in, err := ctx.run(n.child)
	if err != nil {
		return nil, err
	}
	return ctx.collect(in.Slice(), func(t triplestore.Triple, emit func(triplestore.Triple)) {
		if n.cc.Holds(t, t) {
			emit(t)
		}
	})
}

func (n *unionNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	l, err := ctx.run(n.l)
	if err != nil {
		return nil, err
	}
	r, err := ctx.run(n.r)
	if err != nil {
		return nil, err
	}
	return triplestore.Union(l, r), nil
}

func (n *diffNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	l, err := ctx.run(n.l)
	if err != nil {
		return nil, err
	}
	r, err := ctx.run(n.r)
	if err != nil {
		return nil, err
	}
	return triplestore.Difference(l, r), nil
}

func (n *projectNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	in, err := ctx.run(n.child)
	if err != nil {
		return nil, err
	}
	return ctx.collect(in.Slice(), func(t triplestore.Triple, emit func(triplestore.Triple)) {
		emit(triplestore.Triple{t[n.out[0]], t[n.out[1]], t[n.out[2]]})
	})
}

func (n *sharedNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	// Plan execution recurses on the calling goroutine (parallelism lives
	// inside operators), so the memo needs no lock.
	if r := ctx.shared[n.slot]; r != nil {
		ctx.trace.SetAttr("memo", "hit")
		return r, nil
	}
	r, err := ctx.run(n.child)
	if err != nil {
		return nil, err
	}
	ctx.shared[n.slot] = r
	return r, nil
}

// filterSlice keeps the triples satisfying a compiled single-triple
// condition (a side-only prefilter).
func filterSlice(ts []triplestore.Triple, cc trial.CompiledCond) []triplestore.Triple {
	out := make([]triplestore.Triple, 0, len(ts))
	for _, t := range ts {
		if cc.Holds(t, t) {
			out = append(out, t)
		}
	}
	return out
}

// filterRelation keeps the triples of r satisfying a compiled
// single-triple condition.
func filterRelation(r *triplestore.Relation, cc trial.CompiledCond) *triplestore.Relation {
	out := triplestore.NewRelationCap(r.Len())
	r.ForEach(func(t triplestore.Triple) {
		if cc.Holds(t, t) {
			out.Add(t)
		}
	})
	return out
}

func (n *joinNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	l, err := ctx.run(n.l)
	if err != nil {
		return nil, err
	}
	r, err := ctx.run(n.r)
	if err != nil {
		return nil, err
	}
	ctx.trace.SetAttr("in_left", l.Len())
	ctx.trace.SetAttr("in_right", r.Len())
	// Side-only prefilters shrink the probe side (and for hash/loop the
	// build side) with one check per triple. Indexed sides stay whole:
	// their access path is the base relation's cached index, and the full
	// condition is re-checked per candidate pair anyway.
	probeLeft := func() []triplestore.Triple {
		lts := l.Slice()
		if n.hasLCond {
			lts = filterSlice(lts, n.lCC)
		}
		return lts
	}
	switch n.strategy {
	case joinIndexRight:
		probe := n.objKeys[0]
		if n.shardRels != nil {
			return ctx.e.shardedIndexJoin(ctx.ctx, ctx.trace, n.shardRels, probeLeft(),
				probe[0].Index(), probe[1].Index(), false, n.cc, n.out)
		}
		// Build the access path before fanning out: Index mutates the
		// relation's cache under its own lock, but building once up front
		// keeps workers contention-free.
		ix := r.Index(triplestore.PermFor(probe[1].Index()))
		return ctx.collect(probeLeft(), func(lt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, rt := range ix.Match(lt[probe[0].Index()]) {
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	case joinIndexLeft:
		probe := n.objKeys[0]
		rts := r.Slice()
		if n.hasRCond {
			rts = filterSlice(rts, n.rCC)
		}
		if n.shardRels != nil {
			return ctx.e.shardedIndexJoin(ctx.ctx, ctx.trace, n.shardRels, rts,
				probe[1].Index(), probe[0].Index(), true, n.cc, n.out)
		}
		ix := l.Index(triplestore.PermFor(probe[0].Index()))
		return ctx.collect(rts, func(rt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, lt := range ix.Match(rt[probe[1].Index()]) {
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	case joinMerge:
		// Both sides are base-relation scans: walk their permutation
		// indexes in key order, pairing equal-key groups. The common keys
		// come from intersecting the two indexes' cached lead runs; each
		// key's group pair is independent, so the pairing fans out over
		// the worker pool.
		probe := n.objKeys[0]
		lIx := l.Index(triplestore.PermFor(probe[0].Index()))
		rIx := r.Index(triplestore.PermFor(probe[1].Index()))
		common := intersectSortedIDs(lIx.Leads(), rIx.Leads())
		ctx.trace.SetAttr("merge_keys", len(common))
		res := ctx.e.parallelIDCollect(ctx.ctx, common, func(id triplestore.ID, emit func(triplestore.Triple)) {
			rts := rIx.Match(id)
			if n.hasRCond {
				rts = filterSlice(rts, n.rCC)
				if len(rts) == 0 {
					return
				}
			}
			for _, lt := range lIx.Match(id) {
				if n.hasLCond && !n.lCC.Holds(lt, lt) {
					continue
				}
				for _, rt := range rts {
					if n.cc.Holds(lt, rt) {
						emit(trial.Project(n.out, lt, rt))
					}
				}
			}
		})
		if err := ctx.ctx.Err(); err != nil {
			return nil, err
		}
		return res, nil
	case joinHash:
		lKey, rKey := trial.CrossEqualityKeyFuncs(ctx.e.store, n.cond)
		table := make(map[string][]triplestore.Triple, r.Len())
		r.ForEach(func(rt triplestore.Triple) {
			if n.hasRCond && !n.rCC.Holds(rt, rt) {
				return
			}
			k := rKey(rt)
			table[k] = append(table[k], rt)
		})
		return ctx.collect(probeLeft(), func(lt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, rt := range table[lKey(lt)] {
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	default: // joinLoop
		rts := r.Slice()
		if n.hasRCond {
			rts = filterSlice(rts, n.rCC)
		}
		return ctx.collect(probeLeft(), func(lt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, rt := range rts {
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	}
}

// exec evaluates the Kleene closure. Reach-shaped stars (the reachTA=
// fragment of §5) use Proposition 5's per-source BFS — the same
// procedure the reference Evaluator uses — honoring the hoisted seed
// filter if one was attached. Everything else runs semi-naive (delta)
// iteration: the result starts as the seed set, and each round joins
// only the delta (the triples derived for the first time in the previous
// round) with the loop-invariant base, until no new triples appear. The
// access path over the base is built once, before the first round.
//
// Both paths poll the execution context: the BFS between source triples
// (trial.ReachClosureCtx), the semi-naive loop at every round boundary
// (plus the chunk-level polls inside each round's parallel join). A star
// over a dense graph therefore stops within one round of its caller
// disconnecting or timing out.
func (n *starNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	base, err := ctx.run(n.child)
	if err != nil {
		return nil, err
	}
	ctx.trace.SetAttr("in", base.Len())
	if n.reach != trial.ReachNone {
		var seed func(triplestore.Triple) bool
		if n.hasSeed {
			seed = func(t triplestore.Triple) bool { return n.seedCC.Holds(t, t) }
		}
		return trial.ReachClosureCtx(ctx.ctx, base, n.reach, seed)
	}
	// The join side of the iteration may be prefiltered by side-only
	// condition atoms; the seed set may be filtered by a hoisted
	// selection. Both filters only prune work: the full join condition is
	// still checked for every candidate pair.
	joinBase := base
	if n.hasBaseCond {
		joinBase = filterRelation(base, n.baseCC)
	}
	seeds := base
	if n.hasSeed {
		seeds = filterRelation(base, n.seedCC)
	}
	if n.shardedN > 0 {
		return n.execShardedStar(ctx, joinBase, seeds)
	}
	step := n.stepFunc(ctx, joinBase)
	result := seeds.Clone()
	delta := seeds
	rec := newRoundRecorder(ctx.trace, seeds.Len())
	for delta.Len() > 0 {
		if err := ctx.ctx.Err(); err != nil {
			return nil, err
		}
		rec.round(delta.Len())
		derived := step(delta)
		next := triplestore.NewRelation()
		derived.ForEach(func(t triplestore.Triple) {
			if result.Add(t) {
				next.Add(t)
			}
		})
		delta = next
	}
	if err := ctx.ctx.Err(); err != nil {
		return nil, err
	}
	rec.done()
	return result, nil
}

// maxTracedDeltas bounds how many per-round delta sizes a star span
// records: deep fixpoints (a 500-chain runs ~500 rounds) would otherwise
// bloat every trace with an attribute nobody can read.
const maxTracedDeltas = 32

// roundRecorder accumulates semi-naive round statistics onto a span: the
// round count and the first maxTracedDeltas per-round delta sizes. All
// methods are no-ops for an untraced run (nil span), so the fixpoint
// loops stay branch-cheap.
type roundRecorder struct {
	sp     *obs.Span
	rounds int
	deltas []int
}

func newRoundRecorder(sp *obs.Span, seeds int) *roundRecorder {
	if sp != nil {
		sp.SetAttr("seeds", seeds)
	}
	return &roundRecorder{sp: sp}
}

func (r *roundRecorder) round(deltaLen int) {
	if r.sp == nil {
		return
	}
	r.rounds++
	if len(r.deltas) < maxTracedDeltas {
		r.deltas = append(r.deltas, deltaLen)
	}
}

func (r *roundRecorder) done() {
	if r.sp == nil {
		return
	}
	r.sp.SetAttr("rounds", r.rounds)
	if r.rounds > maxTracedDeltas {
		r.sp.SetAttr("deltas_truncated", true)
	}
	r.sp.SetAttr("deltas", r.deltas)
}

// stepFunc returns the per-round join of the semi-naive iteration. For the
// right closure (e ✶)* the round computes delta ✶ base; for the left
// closure, base ✶ delta. When the condition has a cross-side object
// equality the base side is served by a permutation index; otherwise the
// round degrades to a (parallel) scan of base per delta triple. A round
// interrupted by cancellation may return a partial derivation; the star
// loop checks the context before trusting any round's output.
func (n *starNode) stepFunc(ctx *execCtx, base *triplestore.Relation) func(*triplestore.Relation) *triplestore.Relation {
	if len(n.objKeys) > 0 {
		probe := n.objKeys[0]
		if !n.left {
			ix := base.Index(triplestore.PermFor(probe[1].Index()))
			return func(delta *triplestore.Relation) *triplestore.Relation {
				return ctx.e.parallelCollect(ctx.ctx, delta.Slice(), func(lt triplestore.Triple, emit func(triplestore.Triple)) {
					for _, rt := range ix.Match(lt[probe[0].Index()]) {
						if n.cc.Holds(lt, rt) {
							emit(trial.Project(n.out, lt, rt))
						}
					}
				})
			}
		}
		ix := base.Index(triplestore.PermFor(probe[0].Index()))
		return func(delta *triplestore.Relation) *triplestore.Relation {
			return ctx.e.parallelCollect(ctx.ctx, delta.Slice(), func(rt triplestore.Triple, emit func(triplestore.Triple)) {
				for _, lt := range ix.Match(rt[probe[1].Index()]) {
					if n.cc.Holds(lt, rt) {
						emit(trial.Project(n.out, lt, rt))
					}
				}
			})
		}
	}
	baseTs := base.Slice()
	if !n.left {
		return func(delta *triplestore.Relation) *triplestore.Relation {
			return ctx.e.parallelCollect(ctx.ctx, delta.Slice(), func(lt triplestore.Triple, emit func(triplestore.Triple)) {
				for _, rt := range baseTs {
					if n.cc.Holds(lt, rt) {
						emit(trial.Project(n.out, lt, rt))
					}
				}
			})
		}
	}
	return func(delta *triplestore.Relation) *triplestore.Relation {
		return ctx.e.parallelCollect(ctx.ctx, delta.Slice(), func(rt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, lt := range baseTs {
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	}
}
