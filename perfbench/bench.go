package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

// report is what a run prints: the result line, a detail object with
// every measured value and the host fingerprint, and the failed checks.
type report struct {
	result   result
	detail   map[string]any
	problems []string
}

// counters is a snapshot of the program's own counters and the process
// statistics a phase is measured against.
type counters struct {
	cache    query.CacheStats
	rewrites query.RewriteStats
	mut      triplestore.MutationStats
	disk     storage.Stats
	allocs   float64 // bytes allocated by the whole process
	gcCPU    float64 // CPU seconds spent in GC
	totalCPU float64 // CPU seconds available (GOMAXPROCS × wall)
}

func readCounters(st *stack) counters {
	c := counters{
		cache:    st.srv.Querier().Stats(),
		rewrites: st.srv.Querier().RewriteStats(),
		mut:      st.store.MutationStats(),
	}
	if st.disk != nil {
		c.disk = st.disk.Stats()
	}
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	c.allocs = value(s[0])
	c.gcCPU = value(s[1])
	c.totalCPU = value(s[2])
	return c
}

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// liveHeapMiB returns the heap the last collection found live.
func liveHeapMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return value(s[0]) / (1 << 20)
}

// sampleHeap reads the live heap every interval until stop is closed,
// then sends the samples. One reading at the end of a phase would land
// at a random point of the flush and compaction cycle; the median over
// the phase does not.
func sampleHeap(stop <-chan struct{}, out chan<- []float64) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	var xs []float64
	for {
		select {
		case <-stop:
			out <- append(xs, liveHeapMiB())
			return
		case <-t.C:
			xs = append(xs, liveHeapMiB())
		}
	}
}

// measured is one phase on one stack, with its counters around it.
type measured struct {
	phase   *phase
	before  counters
	after   counters
	heapMiB float64 // median live heap over the phase
	heapEnd float64 // live heap after a forced collection at its end
	fin     finishResult
	calls   []engineCall
	setupS  float64
}

// runPhase stages and sets up a fresh stack, warms it, drives it (for
// dur, or replaying the given per-client counts), then finishes it.
func runPhase(fx fixture, dur time.Duration, replay []int, wrap, traced bool) (*measured, error) {
	dir, err := fx.stage()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t := time.Now()
	st, err := fx.setup(dir, wrap)
	if err != nil {
		return nil, err
	}
	m := &measured{setupS: time.Since(t).Seconds()}
	return m, m.drive(fx, st, dir, dur, replay, traced)
}

func (m *measured) drive(fx fixture, st *stack, dir string, dur time.Duration, replay []int, traced bool) error {
	if err := fx.warmup(st); err != nil {
		st.close()
		return err
	}
	gens := fx.generators()
	m.before = readCounters(st)
	stop, heap := make(chan struct{}), make(chan []float64, 1)
	go sampleHeap(stop, heap)
	m.phase = drive(st.url, gens, dur, replay, traced)
	close(stop)
	m.heapMiB = median(<-heap)
	m.after = readCounters(st)
	runtime.GC()
	m.heapEnd = liveHeapMiB()
	if st.rec != nil {
		m.calls = st.rec.snapshot()
	}
	var err error
	m.fin, err = fx.finish(st, dir, gens)
	return err
}

func execute(o options, w workload) (*report, error) {
	work := filepath.Join(o.work, fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	host := fingerprint(work)

	prepStart := time.Now()
	sz := w.full
	if o.smoke {
		sz = w.smoke
	}
	fx, err := w.prepare(o, sz, work)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	prepareS := time.Since(prepStart).Seconds()
	dur := time.Duration(o.seconds * float64(time.Second))

	// Set up several times and keep the last stack: setup_s is the
	// median, so one slow set-up does not decide it.
	reps := w.setupReps
	var setups []float64
	var u *measured
	for i := 0; i < reps; i++ {
		dir, err := fx.stage()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t := time.Now()
		st, err := fx.setup(dir, false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < reps-1 {
			if err := st.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		u = &measured{setupS: setups[i]}
		if err := u.drive(fx, st, dir, dur, nil, false); err != nil {
			return nil, err
		}
	}

	rep := &report{detail: map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "smoke": o.smoke,
		"clients": clients, "entities": sz.entities, "facts": sz.facts, "host": host, "prepare_s": prepareS, "setup_s_samples": setups,
	}}
	e2e := endToEnd(u, median(setups))
	rep.problems = append(rep.problems, phaseProblems("measured", u)...)
	all := u.phase.all()
	rep.result = result{Attempted: len(all), Failed: failures(all)}
	rep.detail["counts"] = sampleCounts(u.phase)
	rep.detail["heap_live_end_mb"] = u.heapEnd
	rep.detail["storage"] = map[string]any{
		"flushes":     u.after.disk.Flushes - u.before.disk.Flushes,
		"compactions": u.after.disk.Compactions - u.before.disk.Compactions,
		"segments":    u.after.disk.Segments,
		"space_amp":   u.fin.spaceAmp,
	}

	if !o.trace {
		rep.result.Metrics = e2e
		rep.detail["end_to_end"] = e2e
		rep.result.Correct = len(rep.problems) == 0
		return rep, nil
	}

	layers, err := traced(o, fx, u, e2e, rep)
	if err != nil {
		return nil, err
	}
	rep.result.Metrics = layers
	rep.detail["end_to_end"] = e2e
	rep.detail["per_layer"] = layers
	rep.result.Correct = len(rep.problems) == 0
	return rep, nil
}

// traced runs the wrapper check and the traced replay, writes the span
// file and returns the per-layer metrics.
func traced(o options, fx fixture, u *measured, e2e map[string]metric, rep *report) (map[string]metric, error) {
	counts := u.phase.counts()
	_, inMemory := fx.(*analytic)
	if inMemory {
		rep.detail["wrapper_check"] = "not applicable: the in-memory stack has no storage engine to wrap"
	} else {
		// The recorder must change nothing: the same requests through it
		// fail and pass their checks exactly as they did without it.
		wm, err := runPhase(fx, 0, counts, true, false)
		if err != nil {
			return nil, fmt.Errorf("wrapped replay: %w", err)
		}
		without, with := outcome(u), outcome(wm)
		if without != with {
			rep.problems = append(rep.problems, fmt.Sprintf(
				"the timing wrapper changed behaviour: without it %s, with it %s", without, with))
		}
		rep.detail["wrapper_check"] = map[string]string{"without": without, "with": with}
	}
	tm, err := runPhase(fx, 0, counts, !inMemory, true)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	rep.problems = append(rep.problems, phaseProblems("traced replay", tm)...)

	layers := perLayer(u, tm)
	untraced := e2e["query_p50_ms"].Value
	tracedP50 := ms(percentile(durations(tm.phase.all(), true, false), 0.5))
	layers["trace.overhead"] = metric{ratio(tracedP50, untraced), "ratio"}

	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, o, tm); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	rep.detail["span_file"] = path
	return layers, nil
}

// outcome summarizes what the wrapper check compares.
func outcome(m *measured) string {
	all := m.phase.all()
	wrong := 0
	for _, s := range all {
		if s.wrong != "" {
			wrong++
		}
	}
	return fmt.Sprintf("error_rate=%g wrong_answers=%d failed_end_checks=%d",
		ratio(float64(failures(all)), float64(len(all))), wrong, len(m.fin.problems))
}

// phaseProblems lists a phase's wrong answers and failed end checks.
func phaseProblems(name string, m *measured) []string {
	var out []string
	for _, s := range m.phase.all() {
		if s.wrong != "" {
			out = append(out, fmt.Sprintf("%s: wrong answer to %s: %s", name, s.id, s.wrong))
		}
	}
	for _, p := range m.fin.problems {
		out = append(out, name+": "+p)
	}
	return out
}

func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

func sampleCounts(p *phase) map[string]int {
	c := map[string]int{}
	for _, s := range p.all() {
		if s.read {
			c["reads"]++
		} else {
			c["writes"]++
		}
		if !s.ok {
			c["failed"]++
		}
	}
	return c
}

// durations returns the latencies of reads, writes or both. A failed
// request counts as missing any latency limit: it sorts last.
func durations(ss []sample, reads, writes bool) []float64 {
	var out []float64
	for _, s := range ss {
		if (s.read && reads) || (!s.read && writes) {
			d := s.dur.Seconds()
			if !s.ok {
				d = math.Inf(1)
			}
			out = append(out, d)
		}
	}
	return out
}

// percentile is the nearest-rank p-quantile; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(seconds float64) float64 { return seconds * 1000 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a user of the server sees, measured with
// tracing off.
func endToEnd(u *measured, setupS float64) map[string]metric {
	all := u.phase.all()
	reads := durations(all, true, false)
	okReads := 0
	for _, s := range all {
		if s.read && s.ok {
			okReads++
		}
	}
	requests := durations(all, true, true)
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"query_p50_ms":   {ms(percentile(reads, 0.5)), "ms"},
		"query_p95_ms":   {ms(percentile(reads, 0.95)), "ms"},
		"query_per_s":    {float64(okReads) / u.phase.wall.Seconds(), "1/s"},
		"request_p50_ms": {ms(percentile(requests, 0.5)), "ms"},
		"request_p95_ms": {ms(percentile(requests, 0.95)), "ms"},
		"heap_live_mb":   {u.heapMiB, "MiB"},
	}
}
