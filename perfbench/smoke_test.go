package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json a run's output must match.
type contract struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smoke runs one workload at the reduced scale and returns its result.
func smoke(t *testing.T, workload string, trace string) result {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"-workload", workload, "-smoke", "-seconds", "0.5", "-trace", trace, "-seed", "3", "-work", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v exited %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkNames fails unless the result reports exactly the contract's
// metrics, with their units.
func checkNames(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	var got, exp []string
	for n, m := range res.Metrics {
		got = append(got, n+" "+m.Unit)
	}
	for _, m := range want {
		exp = append(exp, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, ",") != strings.Join(exp, ",") {
		t.Fatalf("metrics\n got %v\nwant %v", got, exp)
	}
}

// TestSmoke runs every workload at the reduced scale, untraced and
// traced, with every answer check on, and checks that each workload
// stresses the layer it was chosen for.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			checkNames(t, smoke(t, w.Name, "0"), c.EndToEnd)
			res := smoke(t, w.Name, "1")
			checkNames(t, res, c.PerLayer)
			m := func(n string) float64 { return res.Metrics[n].Value }
			switch w.Name {
			case "analytic-hot":
				if m("query.plan_cache_hit_ratio") < 0.99 {
					t.Errorf("plan cache hit ratio %g, want >= 0.99", m("query.plan_cache_hit_ratio"))
				}
				for _, s := range []string{"compile.share", "plan.share"} {
					if m(s) >= m("engine.execute_share") {
						t.Errorf("%s %g is not below engine.execute_share %g", s, m(s), m("engine.execute_share"))
					}
				}
			case "lookup-cold":
				if m("storage.cold_probes_per_query") <= 0 || m("storage.promotions") != 0 {
					t.Errorf("cold probes per query %g (want > 0), promotions %g (want 0)",
						m("storage.cold_probes_per_query"), m("storage.promotions"))
				}
			case "ingest-durable":
				if m("query.plan_cache_hit_ratio") > 0.05 {
					t.Errorf("plan cache hit ratio %g, want about 0", m("query.plan_cache_hit_ratio"))
				}
				if m("storage.flushes") < 1 || m("storage.compactions") < 1 {
					t.Errorf("flushes %g, compactions %g; want at least one of each",
						m("storage.flushes"), m("storage.compactions"))
				}
			}
		})
	}
}

// TestChecksCatchWrongAnswers feeds each workload's answer check a reply
// that differs from the expected one.
func TestChecksCatchWrongAnswers(t *testing.T) {
	a := &analytic{expected: []expectedAnswer{{size: 3, pageHash: hashPage([][3]string{{"a", "b", "c"}})}}}
	req := (&analyticGen{a: a}).request("x", 0)
	if err := req.check(&reply{size: 3, pageHash: hashPage([][3]string{{"a", "b", "c"}})}); err != nil {
		t.Fatalf("matching reply rejected: %v", err)
	}
	if req.check(&reply{size: 3, pageHash: hashPage([][3]string{{"a", "b", "d"}})}) == nil {
		t.Error("analytic-hot check accepted a different first page")
	}
	if req.check(&reply{size: 4}) == nil {
		t.Error("analytic-hot check accepted a different size")
	}

	lreq := (&lookupGen{seq: []lookupReq{{tmpl: tmplTyped, entity: 7, want: 5}}}).next(0)
	if lreq.check(&reply{size: 5}) != nil || lreq.check(&reply{size: 6}) == nil {
		t.Error("lookup-cold check does not compare result sizes")
	}

	g := &ingestGen{in: &ingest{seed: 1, entities: 100}}
	rb := g.readBack(9, 3, 2)
	_, ts := g.batch(3)
	page := ts[2*factsPerSubject : 3*factsPerSubject]
	if err := rb.check(&reply{size: len(page), triples: page}); err != nil {
		t.Fatalf("ingest-durable check rejected the written triples: %v", err)
	}
	if rb.check(&reply{size: len(page) - 1, triples: page[1:]}) == nil {
		t.Error("ingest-durable check accepted a short read-back")
	}
	wrong := append([][3]string{{"x", "y", "z"}}, page[1:]...)
	if rb.check(&reply{size: len(wrong), triples: wrong}) == nil {
		t.Error("ingest-durable check accepted a triple the write did not hold")
	}
}

func TestBatchRequestID(t *testing.T) {
	g := &ingestGen{client: 1}
	if got := batchRequestID(g.subject(42, 15)); got != "c1.r42" {
		t.Errorf("batchRequestID = %q, want c1.r42", got)
	}
	if got := batchRequestID("e17"); got != "" {
		t.Errorf("batchRequestID(e17) = %q, want empty", got)
	}
}
