package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/genstore"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

// ingest-durable: durable NDJSON batches beside read-backs of what each
// client wrote, over an eagerly opened data directory whose WAL is
// fsynced on every batch.

const (
	// subjectsPerBatch × factsPerSubject triples per write.
	subjectsPerBatch = 16
	factsPerSubject  = 16
	// readEvery makes every readEvery-th request of a client a read-back.
	readEvery = 10
)

// flushBytes is ingest-durable's WAL flush threshold: small enough that
// every run completes several flushes and, with the default compaction
// trigger of four segments, at least one compaction. It must be the same
// on both sides of any comparison.
func flushBytes(o options) int64 {
	if o.smoke {
		return 16 << 10
	}
	return 512 << 10
}

type ingest struct {
	*diskBase
	seed     int64
	entities int
	baseSize int
}

func prepareIngest(o options, sz size, work string) (fixture, error) {
	gen, err := genstore.PropertyGraph(seedFor(o.seed, 0), sz.entities, sz.facts).Build()
	if err != nil {
		return nil, err
	}
	// SyncAlways is trialserver's default: a 200 means the batch is in
	// an fsynced WAL record.
	opts := []storage.Option{storage.WithSyncPolicy(storage.SyncAlways), storage.WithFlushBytes(flushBytes(o))}
	base, err := createBase(gen, work, opts)
	if err != nil {
		return nil, err
	}
	return &ingest{diskBase: base, seed: o.seed, entities: sz.entities, baseSize: gen.Size()}, nil
}

func (in *ingest) setup(dir string, wrap bool) (*stack, error) { return in.open(dir, wrap) }

func (in *ingest) warmup(*stack) error { return nil }

func (in *ingest) generators() []generator {
	gens := make([]generator, clients)
	for c := range gens {
		gens[c] = &ingestGen{
			in: in, client: c,
			rng: rand.New(rand.NewSource(seedFor(in.seed, int64(1+c)))),
		}
	}
	return gens
}

// finish abandons the engine without flushing, reopens the directory
// and checks that every acknowledged batch came back. Abandon keeps the
// operating system's page cache, so this is weaker than a power loss:
// it proves the acknowledged records reached the WAL file, not the
// device.
func (in *ingest) finish(st *stack, dir string, gens []generator) (finishResult, error) {
	var res finishResult
	if err := st.abandon(); err != nil {
		return res, err
	}
	d, err := storage.Open(dir, in.opts...)
	if err != nil {
		return res, fmt.Errorf("reopen after abandon: %w", err)
	}
	s := d.Store()
	rel := s.Relation(genstore.RelE)
	want := in.baseSize
	live := in.liveBytes
	for _, g := range gens {
		ig := g.(*ingestGen)
		for _, seq := range ig.acks {
			body, ts := ig.batch(seq)
			live += int64(len(body))
			want += len(ts)
			for _, t := range ts {
				id := triplestore.Triple{s.Lookup(t[0]), s.Lookup(t[1]), s.Lookup(t[2])}
				if rel == nil || !rel.Has(id) {
					res.problems = append(res.problems, fmt.Sprintf(
						"acknowledged batch %s lost after abandon and reopen: missing %v", ig.id(seq), t))
					break
				}
			}
		}
	}
	if got := s.Size(); got != want {
		res.problems = append(res.problems, fmt.Sprintf(
			"reopened store holds %d triples, want %d (base plus acknowledged)", got, want))
	}
	if err := d.Close(); err != nil {
		return res, fmt.Errorf("close after reopen: %w", err)
	}
	n, err := dirBytes(dir)
	if err != nil {
		return res, err
	}
	res.spaceAmp = float64(n) / float64(live)
	return res, os.RemoveAll(dir)
}

// ingestGen is one client's sequence: nine writes of new, distinct
// triples, then a read-back of one subject an earlier write of the same
// client created.
type ingestGen struct {
	in     *ingest
	client int
	rng    *rand.Rand
	acks   []int // sequence numbers of acknowledged writes
}

func (g *ingestGen) id(seq int) string { return fmt.Sprintf("c%d.r%d", g.client, seq) }

func (g *ingestGen) subject(seq, i int) string { return fmt.Sprintf("w.%s.s%d", g.id(seq), i) }

// batch regenerates the write at seq: its NDJSON body and triples. The
// content depends only on the seed, the client and seq, so a read-back
// and the crash check can rebuild it without keeping it.
func (g *ingestGen) batch(seq int) ([]byte, [][3]string) {
	rng := rand.New(rand.NewSource(seedFor(g.in.seed, int64(1000+g.client)) ^ int64(seq)<<20))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	ts := make([][3]string, 0, subjectsPerBatch*factsPerSubject)
	for i := 0; i < subjectsPerBatch; i++ {
		s := g.subject(seq, i)
		off := rng.Intn(numPredicates)
		for f := 0; f < factsPerSubject; f++ {
			t := [3]string{s, fmt.Sprintf("rel%d", (off+f)%numPredicates), fmt.Sprintf("e%d", rng.Intn(g.in.entities))}
			// Encoding a struct of strings cannot fail.
			_ = enc.Encode(ndjsonLine{t[0], t[1], t[2]})
			ts = append(ts, t)
		}
	}
	return buf.Bytes(), ts
}

func (g *ingestGen) next(seq int) request {
	if seq%readEvery != readEvery-1 {
		body, ts := g.batch(seq)
		return request{id: g.id(seq), body: body, triples: len(ts)}
	}
	// The k-th earlier write of this client, k uniform.
	writes := seq - seq/readEvery
	k := g.rng.Intn(writes)
	return g.readBack(seq, k+k/(readEvery-1), g.rng.Intn(subjectsPerBatch))
}

// readBack reads subject i of the write at wseq and checks that exactly
// its triples come back.
func (g *ingestGen) readBack(seq, wseq, i int) request {
	_, ts := g.batch(wseq)
	want := map[[3]string]bool{}
	for _, t := range ts[i*factsPerSubject : (i+1)*factsPerSubject] {
		want[t] = true
	}
	return request{
		id: g.id(seq), lang: "trial", query: fmt.Sprintf(`sigma[1="%s"](E)`, g.subject(wseq, i)),
		check: func(rep *reply) error {
			if rep.size != len(want) || len(rep.triples) != len(want) {
				return fmt.Errorf("read back %d triples (page %d), want %d", rep.size, len(rep.triples), len(want))
			}
			for _, t := range rep.triples {
				if !want[t] {
					return fmt.Errorf("read back %v, which the write did not hold", t)
				}
			}
			return nil
		},
	}
}

func (g *ingestGen) acked(seq int) { g.acks = append(g.acks, seq) }
