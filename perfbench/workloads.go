package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/genstore"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// workload is one traffic mix: its data scale at full size and in
// smoke mode, how many times to time the set-up, and how to prepare its
// inputs (untimed) into the fixture that runs it.
type workload struct {
	full, smoke size
	setupReps   int
	prepare     func(o options, sz size, dir string) (fixture, error)
}

// size is a genstore.PropertyGraph scale.
type size struct{ entities, facts int }

var workloads = map[string]workload{
	"analytic-hot":   {full: size{50_000, 200_000}, smoke: size{2_000, 8_000}, setupReps: 3, prepare: prepareAnalytic},
	"lookup-cold":    {full: size{100_000, 400_000}, smoke: size{4_000, 16_000}, setupReps: 9, prepare: prepareLookup},
	"ingest-durable": {full: size{20_000, 80_000}, smoke: size{1_000, 4_000}, setupReps: 9, prepare: prepareIngest},
}

// fixture is a prepared workload.
type fixture interface {
	// stage readies a fresh input for one stack (untimed) and returns
	// its data directory, or "" for the in-memory workload.
	stage() (string, error)
	// setup stands the serving stack up from a staged input; this is
	// what setup_s times. wrap puts the timing recorder between the
	// server and the storage engine.
	setup(dir string, wrap bool) (*stack, error)
	// warmup runs untimed, checked requests that fill caches users
	// would find warm.
	warmup(st *stack) error
	// generators returns fresh seeded request sequences, one per client.
	generators() []generator
	// finish stops the stack after a phase and runs the end-of-run
	// checks on what the phase acknowledged.
	finish(st *stack, dir string, gens []generator) (finishResult, error)
}

// finishResult is what finish measured and found.
type finishResult struct {
	spaceAmp float64  // data directory bytes per NDJSON byte of live triples; 0 in memory
	problems []string // failed end-of-run checks
}

// seedFor derives the seed of one stream of a run, so the data and each
// client's requests are independent but all follow from -seed.
func seedFor(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

// ndjsonLine is one wire triple.
type ndjsonLine struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

// encodeStore renders every triple of relation E as NDJSON, in the
// store's canonical order, split into chunks of at most chunk lines.
func encodeStore(s *triplestore.Store, chunk int) ([][]byte, error) {
	var out [][]byte
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	n := 0
	for _, t := range s.Relation(genstore.RelE).Triples() {
		if err := enc.Encode(ndjsonLine{s.Name(t[0]), s.Name(t[1]), s.Name(t[2])}); err != nil {
			return nil, err
		}
		if n++; n == chunk {
			out = append(out, bytes.Clone(buf.Bytes()))
			buf.Reset()
			n = 0
		}
	}
	if n > 0 {
		out = append(out, bytes.Clone(buf.Bytes()))
	}
	return out, nil
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// ndjsonBytes is the NDJSON size of relation E, the denominator of
// space_amp.
func ndjsonBytes(s *triplestore.Store) (int64, error) {
	var n byteCounter
	enc := json.NewEncoder(&n)
	for _, t := range s.Relation(genstore.RelE).Slice() {
		if err := enc.Encode(ndjsonLine{s.Name(t[0]), s.Name(t[1]), s.Name(t[2])}); err != nil {
			return 0, err
		}
	}
	return int64(n), nil
}

// ---------------------------------------------------------------------
// analytic-hot: a fixed pool of analytic queries over an in-memory store.

// poolQuery is one query of analytic-hot's pool.
type poolQuery struct {
	lang, text string
}

// analyticPool spans all five languages: typed 2-hop joins, a
// same-label reach star, regular path queries with inverse and closure,
// a nested regular expression, nSPARQL and GXPath paths.
var analyticPool = []poolQuery{
	{"trial", `join[1,2,3'; 3=1', 2="rel3", 2'="rel5"](E, E)`},
	{"trial", `rstar[1,2,3'; 3=1', 2=2'](sigma[2="rel7"](E))`},
	{"trial", `join[1,2,3'; 3=1', 2'="type"](sigma[2="rel0"](E), E)`},
	{"rpq", `rel1 rel2`},
	{"rpq", `rel3 rel4^-`},
	{"rpq", `rel5+`},
	{"nre", `rel1.[rel2].rel3`},
	{"nsparql", `next::rel1/next::rel2`},
	{"gxpath", `rel1.rel2`},
	{"gxpath", `[<type>].rel6`},
}

// expectedAnswer is what every reply to a pool query must show.
type expectedAnswer struct {
	size     int
	pageHash uint64
}

type analytic struct {
	seed     int64
	chunks   [][]byte
	expected []expectedAnswer
}

func prepareAnalytic(o options, sz size, _ string) (fixture, error) {
	gen, err := genstore.PropertyGraph(seedFor(o.seed, 0), sz.entities, sz.facts).Build()
	if err != nil {
		return nil, err
	}
	chunks, err := encodeStore(gen, 1<<16)
	if err != nil {
		return nil, err
	}
	// The reference copy is ingested from the same NDJSON as the served
	// store, so both intern names in the same order and page the same.
	ref, err := ingestChunks(chunks)
	if err != nil {
		return nil, err
	}
	a := &analytic{seed: o.seed, chunks: chunks}
	q := query.New(ref)
	ev := trial.NewEvaluator(ref)
	for _, pq := range analyticPool {
		lang, err := query.ParseLang(pq.lang)
		if err != nil {
			return nil, err
		}
		got, err := q.Query(lang, pq.text)
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", pq.lang, pq.text, err)
		}
		x, err := q.Compile(lang, pq.text)
		if err != nil {
			return nil, err
		}
		want, err := ev.Eval(x)
		if err != nil {
			return nil, fmt.Errorf("reference evaluator on %q: %w", pq.text, err)
		}
		if !got.Equal(want) {
			return nil, fmt.Errorf("%s %q: engine answer (%d triples) differs from the reference evaluator (%d)",
				pq.lang, pq.text, got.Len(), want.Len())
		}
		if want.Len() == 0 {
			return nil, fmt.Errorf("%s %q: empty answer; every pool query must return triples", pq.lang, pq.text)
		}
		ts := want.Triples()
		if len(ts) > pageLimit {
			ts = ts[:pageLimit]
		}
		page := make([][3]string, len(ts))
		for i, t := range ts {
			page[i] = [3]string{ref.Name(t[0]), ref.Name(t[1]), ref.Name(t[2])}
		}
		a.expected = append(a.expected, expectedAnswer{size: want.Len(), pageHash: hashPage(page)})
	}
	return a, nil
}

// ingestChunks bulk-loads NDJSON chunks into a fresh store.
func ingestChunks(chunks [][]byte) (*triplestore.Store, error) {
	s := triplestore.NewStore()
	for _, c := range chunks {
		if _, err := s.ApplyNDJSON(bytes.NewReader(c), genstore.RelE); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
	}
	return s, nil
}

func (a *analytic) stage() (string, error) { return "", nil }

func (a *analytic) setup(_ string, _ bool) (*stack, error) {
	s, err := ingestChunks(a.chunks)
	if err != nil {
		return nil, err
	}
	return listen(serve.New(s), s, nil, nil)
}

func (a *analytic) warmup(st *stack) error {
	gen := &analyticGen{a: a}
	hc := newClient()
	defer hc.CloseIdleConnections()
	for i := range analyticPool {
		req := gen.request("warmup", i)
		if s := send(hc, st.url, &req, false, time.Now()); !s.ok || s.wrong != "" {
			return fmt.Errorf("warm-up: %s%s", s.failure, s.wrong)
		}
	}
	return nil
}

func (a *analytic) generators() []generator {
	gens := make([]generator, clients)
	for c := range gens {
		rng := rand.New(rand.NewSource(seedFor(a.seed, int64(1+c))))
		gens[c] = &analyticGen{a: a, client: c, pick: newCycle(rng, len(analyticPool))}
	}
	return gens
}

func (a *analytic) finish(st *stack, _ string, _ []generator) (finishResult, error) {
	return finishResult{}, st.close()
}

type analyticGen struct {
	a      *analytic
	client int
	pick   *cycle
}

func (g *analyticGen) next(seq int) request {
	return g.request(fmt.Sprintf("c%d.r%d", g.client, seq), g.pick.next())
}

func (g *analyticGen) request(id string, i int) request {
	pq, want := analyticPool[i], g.a.expected[i]
	return request{id: id, lang: pq.lang, query: pq.text, check: func(rep *reply) error {
		if rep.size != want.size {
			return fmt.Errorf("result size %d, want %d", rep.size, want.size)
		}
		if rep.pageHash != want.pageHash {
			return fmt.Errorf("first page differs from the reference answer")
		}
		return nil
	}}
}

func (g *analyticGen) acked(int) {}

// cycle draws indices uniformly without replacement: every n draws are
// a fresh permutation of [0, n), so each run's mix holds every choice in
// the same proportion and only the order varies with the seed.
type cycle struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newCycle(rng *rand.Rand, n int) *cycle { return &cycle{rng: rng, n: n} }

func (c *cycle) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	i := c.perm[0]
	c.perm = c.perm[1:]
	return i
}

// ---------------------------------------------------------------------
// disk workloads: shared staging of a prepared data directory.

// diskBase is a prepared data directory that every stack opens a fresh
// copy of.
type diskBase struct {
	dir       string // the pristine directory
	work      string
	opts      []storage.Option
	liveBytes int64 // NDJSON bytes of the base triples
	staged    int
}

// createBase checkpoints gen into dir/base and records its NDJSON size.
func createBase(gen *triplestore.Store, work string, opts []storage.Option) (*diskBase, error) {
	live, err := ndjsonBytes(gen)
	if err != nil {
		return nil, err
	}
	b := &diskBase{dir: filepath.Join(work, "base"), work: work, opts: opts, liveBytes: live}
	d, err := storage.CreateFrom(b.dir, gen, opts...)
	if err != nil {
		return nil, fmt.Errorf("create data directory: %w", err)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("close data directory: %w", err)
	}
	return b, nil
}

// stage copies the pristine directory so every stack starts from the
// same bytes.
func (b *diskBase) stage() (string, error) {
	b.staged++
	dir := filepath.Join(b.work, fmt.Sprintf("run%d", b.staged))
	if err := copyDir(b.dir, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// open is the timed part of a disk set-up: storage.Open of the staged
// directory, serve.NewStorage, and the first health probe.
func (b *diskBase) open(dir string, wrap bool) (*stack, error) {
	d, err := storage.Open(dir, b.opts...)
	if err != nil {
		return nil, fmt.Errorf("open data directory: %w", err)
	}
	var eng storage.Engine = d
	var rec *recorder
	if wrap {
		rec = newRecorder(d)
		eng = rec
	}
	return listen(serve.NewStorage(eng), d.Store(), d, rec)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// ---------------------------------------------------------------------
// lookup-cold: point lookups with mostly new texts over a fully cold
// data directory.

// lookupTemplates are the four request shapes; %d is the entity.
const (
	tmplSubject = iota // sigma[1="e<k>"](E)
	tmplObject         // sigma[3="e<k>"](E)
	tmplTyped          // join[1,2,3'; 3=1', 1="e<k>", 2'="type"](E, E)
	tmplNext           // nSPARQL self::e<k>/next::rel<j>
)

// lookupMix is the template mix of every six lookups: two thirds are
// constant selections, so the median falls among full scans of the cold
// relation, and one third are the entity-dependent typed 2-hop and
// nSPARQL step, which set the tail.
var lookupMix = []int{tmplSubject, tmplObject, tmplTyped, tmplSubject, tmplObject, tmplNext}

// numPredicates is genstore.PropertyGraph's predicate vocabulary size.
const numPredicates = 24

// lookupReq is one precomputed lookup with its expected result size.
type lookupReq struct {
	tmpl, entity, rel int
	want              int
}

type lookup struct {
	*diskBase
	seqs [][]lookupReq // per client; a client that exhausts its sequence starts over
}

// lookupPerClient is how many distinct requests each client's sequence
// holds before it repeats.
func lookupPerClient(o options) int {
	n := int(o.seconds * 2000)
	if n < 2000 {
		n = 2000
	}
	return n
}

func prepareLookup(o options, sz size, work string) (fixture, error) {
	gen, err := genstore.PropertyGraph(seedFor(o.seed, 0), sz.entities, sz.facts).Build()
	if err != nil {
		return nil, err
	}
	base, err := createBase(gen, work, []storage.Option{storage.WithReadBudget(0)})
	if err != nil {
		return nil, err
	}
	l := &lookup{diskBase: base}
	cnt := newCounter(gen)
	// Hub entities recur often; count each distinct request once.
	memo := map[lookupReq]int{}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seedFor(o.seed, int64(1+c))))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(sz.entities-1))
		pick := newCycle(rng, len(lookupMix))
		seq := make([]lookupReq, lookupPerClient(o))
		for i := range seq {
			r := lookupReq{entity: int(zipf.Uint64()), tmpl: lookupMix[pick.next()], rel: rng.Intn(numPredicates)}
			if r.tmpl != tmplNext {
				r.rel = 0 // only the nSPARQL step names a predicate
			}
			want, ok := memo[r]
			if !ok {
				want = cnt.count(r)
				memo[r] = want
			}
			r.want = want
			seq[i] = r
		}
		l.seqs = append(l.seqs, seq)
	}
	// The in-memory copy goes out of scope here: execute collects it
	// before any set-up is timed.
	return l, nil
}

func (l *lookup) setup(dir string, wrap bool) (*stack, error) { return l.open(dir, wrap) }

func (l *lookup) warmup(*stack) error { return nil }

func (l *lookup) generators() []generator {
	gens := make([]generator, clients)
	for c := range gens {
		gens[c] = &lookupGen{client: c, seq: l.seqs[c]}
	}
	return gens
}

func (l *lookup) finish(st *stack, dir string, _ []generator) (finishResult, error) {
	if err := st.close(); err != nil {
		return finishResult{}, err
	}
	n, err := dirBytes(dir)
	if err != nil {
		return finishResult{}, err
	}
	return finishResult{spaceAmp: float64(n) / float64(l.liveBytes)}, os.RemoveAll(dir)
}

type lookupGen struct {
	client int
	seq    []lookupReq
}

func (g *lookupGen) next(seq int) request {
	r := g.seq[seq%len(g.seq)]
	req := request{id: fmt.Sprintf("c%d.r%d", g.client, seq), lang: "trial"}
	e := fmt.Sprintf("e%d", r.entity)
	switch r.tmpl {
	case tmplSubject:
		req.query = fmt.Sprintf(`sigma[1="%s"](E)`, e)
	case tmplObject:
		req.query = fmt.Sprintf(`sigma[3="%s"](E)`, e)
	case tmplTyped:
		req.query = fmt.Sprintf(`join[1,2,3'; 3=1', 1="%s", 2'="type"](E, E)`, e)
	case tmplNext:
		req.lang, req.query = "nsparql", fmt.Sprintf(`self::%s/next::rel%d`, e, r.rel)
	}
	want := r.want
	req.check = func(rep *reply) error {
		if rep.size != want {
			return fmt.Errorf("result size %d, want %d", rep.size, want)
		}
		return nil
	}
	return req
}

func (g *lookupGen) acked(int) {}

// counter answers lookup-cold's four templates from the generated
// triples directly: a subject-sorted copy of E, object degrees and each
// entity's class.
type counter struct {
	s       *triplestore.Store
	bySubj  []triplestore.Triple
	first   []int32 // bySubj[first[id]:first[id+1]] has subject id
	inDeg   []int32
	class   []triplestore.ID // class[id]+1, 0 for none
	typeID  triplestore.ID
	relIDs  [numPredicates]triplestore.ID
	scratch map[[2]triplestore.ID]struct{}
}

func newCounter(s *triplestore.Store) *counter {
	n := s.NumObjects()
	c := &counter{
		s:       s,
		first:   make([]int32, n+1),
		inDeg:   make([]int32, n),
		class:   make([]triplestore.ID, n),
		typeID:  s.Lookup("type"),
		scratch: map[[2]triplestore.ID]struct{}{},
	}
	for j := range c.relIDs {
		c.relIDs[j] = s.Lookup(fmt.Sprintf("rel%d", j))
	}
	ts := s.Relation(genstore.RelE).Slice()
	for _, t := range ts {
		c.first[t[0]+1]++
		c.inDeg[t[2]]++
		if t[1] == c.typeID {
			c.class[t[0]] = t[2] + 1
		}
	}
	for i := 0; i < n; i++ {
		c.first[i+1] += c.first[i]
	}
	c.bySubj = make([]triplestore.Triple, len(ts))
	fill := append([]int32(nil), c.first[:n]...)
	for _, t := range ts {
		c.bySubj[fill[t[0]]] = t
		fill[t[0]]++
	}
	return c
}

func (c *counter) count(r lookupReq) int {
	id := c.s.Lookup(fmt.Sprintf("e%d", r.entity))
	if id == triplestore.NoID {
		return 0
	}
	out := c.bySubj[c.first[id]:c.first[id+1]]
	switch r.tmpl {
	case tmplSubject:
		return len(out)
	case tmplObject:
		return int(c.inDeg[id])
	case tmplTyped:
		// (e, p, class(o)) for every fact (e, p, o) whose object is typed.
		clear(c.scratch)
		for _, t := range out {
			if cl := c.class[t[2]]; cl != 0 {
				c.scratch[[2]triplestore.ID{t[1], cl}] = struct{}{}
			}
		}
		return len(c.scratch)
	default:
		// Distinct objects o with (e, rel<j>, o); E is a set, so every
		// such triple has its own object.
		n := 0
		for _, t := range out {
			if t[1] == c.relIDs[r.rel] {
				n++
			}
		}
		return n
	}
}
