package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// opKinds are the engine operator kinds reported as
// engine.op.<kind>.self_ms; an operator label outside the list is
// folded into "other".
var opKinds = []string{
	"scan", "filter", "union", "diff", "project", "shared", "universe",
	"join-hash", "join-index-right", "join-index-left", "join-merge", "join-loop", "join-leapfrog",
	"star-bfs-reach", "star-bfs-reach-same-label", "star-semi-naive-delta-index", "star-semi-naive-delta-loop",
	"other",
}

// opKind maps an operator span name to a metric-safe kind:
// "join:merge" → "join-merge", "star:semi-naive delta-loop" →
// "star-semi-naive-delta-loop".
func opKind(name string) string {
	k := strings.NewReplacer(":", "-", " ", "-").Replace(name)
	for _, known := range opKinds {
		if k == known {
			return k
		}
	}
	return "other"
}

// selfUs is a span's duration minus its children's, clamped at zero.
func selfUs(s *span) int64 {
	d := s.DurUs
	for _, c := range s.Children {
		d -= c.DurUs
	}
	if d < 0 {
		d = 0
	}
	return d
}

// addOpSelf accumulates the self time of every operator span under s.
func addOpSelf(s *span, into map[string]float64) {
	for _, c := range s.Children {
		into[opKind(c.Name)] += float64(selfUs(c))
		addOpSelf(c, into)
	}
}

func child(s *span, name string) *span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// perLayer computes the per-layer metrics: counters from the untraced
// phase u (so they count exactly what the end-to-end run did), timings
// from the traced replay t.
func perLayer(u, t *measured) map[string]metric {
	m := map[string]metric{}
	all := u.phase.all()
	reads, writes := 0, 0
	ackedTriples := 0
	for _, s := range all {
		if s.read {
			reads++
		} else {
			writes++
			if s.ok {
				ackedTriples += s.triples
			}
		}
	}
	wall := u.phase.wall.Seconds()
	w := durations(all, false, true)
	m["error_rate"] = metric{ratio(float64(failures(all)), float64(len(all))), "ratio"}
	m["ingest_p50_ms"] = metric{ms(percentile(w, 0.5)), "ms"}
	m["ingest_p95_ms"] = metric{ms(percentile(w, 0.95)), "ms"}
	m["ingest_triples_per_s"] = metric{float64(ackedTriples) / wall, "1/s"}
	m["space_amp"] = metric{u.fin.spaceAmp, "ratio"}

	b, a := u.before, u.after
	hits := float64(a.cache.Hits - b.cache.Hits)
	misses := float64(a.cache.Misses - b.cache.Misses)
	m["query.plan_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["query.stale_evictions_per_read"] = metric{ratio(float64(a.cache.StaleEvictions-b.cache.StaleEvictions), float64(reads)), "count"}
	m["optimizer.rewritten_ratio"] = metric{ratio(float64(a.rewrites.Rewritten-b.rewrites.Rewritten), float64(a.rewrites.Planned-b.rewrites.Planned)), "ratio"}
	m["triplestore.snapshots_per_write"] = metric{ratio(float64(a.mut.Snapshots-b.mut.Snapshots), float64(writes)), "count"}
	rb, ra := b.disk.Residency, a.disk.Residency
	cacheHits, cacheMisses := float64(ra.CacheHits-rb.CacheHits), float64(ra.CacheMisses-rb.CacheMisses)
	m["storage.cache_hit_ratio"] = metric{ratio(cacheHits, cacheHits+cacheMisses), "ratio"}
	m["storage.cold_probes_per_query"] = metric{ratio(float64(ra.ColdProbes-rb.ColdProbes), float64(reads)), "count"}
	m["storage.cold_decodes_per_query"] = metric{ratio(float64(ra.ColdDecodes-rb.ColdDecodes), float64(reads)), "count"}
	m["storage.promotions"] = metric{float64(ra.Promotions - rb.Promotions), "count"}
	m["storage.flushes"] = metric{float64(a.disk.Flushes - b.disk.Flushes), "count"}
	m["storage.compactions"] = metric{float64(a.disk.Compactions - b.disk.Compactions), "count"}
	m["storage.segments_end"] = metric{float64(a.disk.Segments), "count"}
	m["storage.recovery_ms"] = metric{a.disk.RecoveryMillis, "ms"}
	m["process.alloc_kb_per_request"] = metric{ratio((a.allocs-b.allocs)/1024, float64(len(all))), "KiB"}
	m["process.gc_cpu_share"] = metric{ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU), "ratio"}

	// Timings from the traced replay's spans.
	var serveSelf, querySelf, compileMs, planMs, execMs []float64
	var sumRoot, sumCompile, sumPlan, sumExec, results float64
	ops := map[string]float64{}
	tracedReads := 0
	for _, s := range t.phase.all() {
		if !s.read || s.trace == nil {
			continue
		}
		tracedReads++
		root := s.trace
		serveSelf = append(serveSelf, float64(s.dur.Microseconds()-root.DurUs)/1000)
		sumRoot += float64(root.DurUs)
		kids := int64(0)
		if c := child(root, "compile"); c != nil {
			compileMs = append(compileMs, float64(c.DurUs)/1000)
			sumCompile += float64(c.DurUs)
			kids += c.DurUs
		}
		if c := child(root, "plan"); c != nil {
			planMs = append(planMs, float64(c.DurUs)/1000)
			sumPlan += float64(c.DurUs)
			kids += c.DurUs
		}
		if c := child(root, "execute"); c != nil {
			execMs = append(execMs, float64(c.DurUs)/1000)
			sumExec += float64(c.DurUs)
			kids += c.DurUs
			addOpSelf(c, ops)
		}
		querySelf = append(querySelf, float64(root.DurUs-kids)/1000)
		if n, ok := root.Attrs["result_size"].(float64); ok {
			results += n
		}
	}
	m["serve.query_self_ms_p50"] = metric{median(serveSelf), "ms"}
	m["query.self_ms_p50"] = metric{median(querySelf), "ms"}
	m["compile.ms_p50"] = metric{median(compileMs), "ms"}
	m["compile.share"] = metric{ratio(sumCompile, sumRoot), "ratio"}
	m["plan.ms_p50"] = metric{median(planMs), "ms"}
	m["plan.share"] = metric{ratio(sumPlan, sumRoot), "ratio"}
	m["engine.execute_ms_p50"] = metric{median(execMs), "ms"}
	m["engine.execute_share"] = metric{ratio(sumExec, sumRoot), "ratio"}
	m["engine.result_triples_per_query"] = metric{ratio(results, float64(tracedReads)), "count"}
	for _, k := range opKinds {
		m["engine.op."+k+".self_ms"] = metric{ratio(ops[k]/1000, float64(tracedReads)), "ms"}
	}

	// Engine calls through the recorder, tied to writes by request id.
	apply := map[string]time.Duration{}
	var applyMs, pinMs []float64
	for _, c := range t.calls {
		switch c.op {
		case "apply_batch":
			apply[c.requestID] += c.dur
			applyMs = append(applyMs, ms(c.dur.Seconds()))
		case "pin":
			pinMs = append(pinMs, ms(c.dur.Seconds()))
		}
	}
	var ingestSelf []float64
	for _, s := range t.phase.all() {
		if d, ok := apply[s.id]; ok && !s.read {
			ingestSelf = append(ingestSelf, ms((s.dur - d).Seconds()))
		}
	}
	m["serve.ingest_self_ms_p50"] = metric{median(ingestSelf), "ms"}
	m["storage.apply_ms_p50"] = metric{percentile(applyMs, 0.5), "ms"}
	m["storage.apply_ms_p95"] = metric{percentile(applyMs, 0.95), "ms"}
	m["storage.pin_ms_p50"] = metric{median(pinMs), "ms"}
	return m
}

// spanOut is one node of the span file: the client span of a request,
// with the server's span tree or the recorder's engine calls nested
// under it, and every node's self time.
type spanOut struct {
	Name      string         `json:"name"`
	RequestID string         `json:"request_id,omitempty"`
	StartUs   *int64         `json:"start_us,omitempty"`
	DurUs     int64          `json:"dur_us"`
	SelfUs    int64          `json:"self_us"`
	Attrs     map[string]any `json:"attrs,omitempty"`
	Children  []*spanOut     `json:"children,omitempty"`
}

func fromServer(s *span) *spanOut {
	o := &spanOut{Name: s.Name, DurUs: s.DurUs, SelfUs: selfUs(s), Attrs: s.Attrs}
	for _, c := range s.Children {
		o.Children = append(o.Children, fromServer(c))
	}
	return o
}

// writeSpans writes the traced replay as JSON lines: a header with the
// run's settings, one client span per request, then the engine calls
// that belong to no request (pins and snapshots taken by reads).
func writeSpans(path string, o options, t *measured) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"workload": o.workload, "seed": o.seed, "smoke": o.smoke}); err != nil {
		return err
	}
	byReq := map[string][]engineCall{}
	var loose []engineCall
	for _, c := range t.calls {
		if c.requestID != "" {
			byReq[c.requestID] = append(byReq[c.requestID], c)
		} else {
			loose = append(loose, c)
		}
	}
	call := func(c engineCall) *spanOut {
		start := c.at.Sub(t.phase.t0).Microseconds()
		d := c.dur.Microseconds()
		return &spanOut{Name: "storage." + c.op, StartUs: &start, DurUs: d, SelfUs: d}
	}
	for _, s := range t.phase.all() {
		start := s.start.Microseconds()
		out := &spanOut{Name: "client.write", RequestID: s.id, StartUs: &start, DurUs: s.dur.Microseconds(),
			Attrs: map[string]any{"ok": s.ok}}
		if s.read {
			out.Name = "client.read"
			if s.trace != nil {
				out.Children = append(out.Children, fromServer(s.trace))
			}
		}
		for _, c := range byReq[s.id] {
			out.Children = append(out.Children, call(c))
		}
		out.SelfUs = out.DurUs
		for _, c := range out.Children {
			out.SelfUs -= c.DurUs
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	for _, c := range loose {
		if err := enc.Encode(call(c)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
