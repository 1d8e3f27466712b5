package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/trial"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(fixtures.Transport(), WithWorkers(2), WithRelation(fixtures.RelE), WithCacheSize(64))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestQueryText(t *testing.T) {
	srv, ts := testServer(t)
	resp, body := get(t, ts.URL+"/query?q="+
		"join%5B1%2C3%27%2C3%3B%202%3D1%27%5D(E%2C%20E)") // join[1,3',3; 2=1'](E, E)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	want, err := trial.NewEvaluator(srv.store).Eval(trial.Example2(fixtures.RelE))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Trial-Result-Size"); got != "" {
		if got != itoa(want.Len()) {
			t.Errorf("X-Trial-Result-Size = %s, want %d", got, want.Len())
		}
	} else {
		t.Error("missing X-Trial-Result-Size header")
	}
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") || sc.Text() == "" {
			continue
		}
		if got := len(strings.Split(sc.Text(), "\t")); got != 3 {
			t.Errorf("line %q has %d fields, want 3", sc.Text(), got)
		}
		lines++
	}
	if lines != want.Len() {
		t.Errorf("streamed %d triples, want %d", lines, want.Len())
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestQueryJSONAndLimit(t *testing.T) {
	_, ts := testServer(t)
	resp, body := get(t, ts.URL+"/query?format=json&limit=2&q=E")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var n int
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var row map[string]string
		if err := dec.Decode(&row); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"s", "p", "o"} {
			if _, ok := row[k]; !ok {
				t.Errorf("row %v missing %q", row, k)
			}
		}
		n++
	}
	if n != 2 {
		t.Errorf("limit=2 streamed %d rows", n)
	}
	if size := resp.Header.Get("X-Trial-Result-Size"); size != "7" {
		t.Errorf("full size header = %q, want 7 (limit must not truncate it)", size)
	}
}

func TestQueryPost(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/query", "text/plain",
		strings.NewReader(`rstar[1,2,3'; 3=1'](E)`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "St. Andrews\tBus Op 1\tBrussels") {
		t.Errorf("reachability result missing transitive triple:\n%s", body)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/query", http.StatusBadRequest},                      // no query
		{"/query?q=join%5B(", http.StatusBadRequest},           // parse error
		{"/query?q=NoSuchRel", http.StatusUnprocessableEntity}, // unknown relation
		{"/query?q=E&limit=x", http.StatusBadRequest},          // bad limit
		{"/query?q=E&format=xml", http.StatusBadRequest},       // bad format
	} {
		resp, body := get(t, ts.URL+tc.url)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.url, resp.StatusCode, tc.code, body)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, body := get(t, ts.URL+"/explain?q=rstar%5B1%2C2%2C3%27%3B%203%3D1%27%5D(E)")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "bfs-reach") && !strings.Contains(body, "semi-naive") {
		t.Errorf("explain output missing star strategy:\n%s", body)
	}
	if !strings.Contains(body, "rewrites[v") {
		t.Errorf("explain output missing rewrite trace:\n%s", body)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := testServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["triples"] != float64(7) {
		t.Errorf("stats triples = %v, want 7", stats["triples"])
	}
	if stats["workers"] != float64(2) {
		t.Errorf("stats workers = %v, want the configured 2", stats["workers"])
	}
	opt, ok := stats["optimizer"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing optimizer counters: %v", body)
	}
	if opt["optimizer_version"] == float64(0) {
		t.Errorf("optimizer_version = %v, want nonzero", opt["optimizer_version"])
	}
	if _, ok := opt["rule_hits"]; !ok {
		t.Errorf("optimizer stats missing rule_hits: %v", opt)
	}
	ss, ok := stats["store_stats"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing store_stats: %v", body)
	}
	for _, key := range []string{"refreshes", "relation_passes"} {
		if _, ok := ss[key]; !ok {
			t.Errorf("store_stats missing %s: %v", key, ss)
		}
	}

	// A query that the optimizer rewrites bumps the counters.
	get(t, ts.URL+"/query?q=sigma%5B1%3D2%5D(union(E%2C%20E))")
	_, body = get(t, ts.URL+"/stats")
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	opt = stats["optimizer"].(map[string]any)
	if opt["rewritten"] == float64(0) {
		t.Errorf("optimizer rewritten count still zero after rewritten query: %v", opt)
	}
}

func TestConcurrentQueries(t *testing.T) {
	_, ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?q=rstar%5B1%2C2%2C3%27%3B%203%3D1%27%5D(E)")
			if err != nil {
				errs <- err.Error()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- "bad status"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestQueryLang(t *testing.T) {
	srv, ts := testServer(t)
	// An RPQ over the transport network: part_of-reachability. The façade
	// result is canonical {(x, x, y)}, so the translated expression must
	// agree with the reference evaluator via the query layer (covered in
	// internal/query); here we check the HTTP surface end to end.
	resp, body := get(t, ts.URL+"/query?lang=rpq&q=part_of%2B")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "Train Op 1\tTrain Op 1\tNatExpress") {
		t.Errorf("rpq result missing transitive part_of pair:\n%s", body)
	}
	// nSPARQL and GXPath reach the same engine.
	for _, u := range []string{
		"/query?lang=nsparql&q=next*",
		"/query?lang=nre&q=part_of*",
		"/query?lang=gxpath&q=part_of*",
	} {
		if resp, body := get(t, ts.URL+u); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", u, resp.StatusCode, body)
		}
	}
	// Bad language and bad source in a valid language.
	if resp, _ := get(t, ts.URL+"/query?lang=sql&q=E"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("lang=sql: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/query?lang=rpq&q=(a"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rpq: status %d, want 400", resp.StatusCode)
	}
	// The explain endpoint accepts lang too.
	resp, body = get(t, ts.URL+"/explain?lang=rpq&q=part_of%2B")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "scan") {
		t.Errorf("explain lang=rpq: status %d body %q", resp.StatusCode, body)
	}
	_ = srv
}

func TestStatsPlanCache(t *testing.T) {
	_, ts := testServer(t)
	// Two identical queries: one miss, one hit.
	get(t, ts.URL+"/query?lang=rpq&q=part_of")
	get(t, ts.URL+"/query?lang=rpq&q=part_of")
	_, body := get(t, ts.URL+"/stats")
	var stats struct {
		PlanCache struct {
			Hits     uint64 `json:"hits"`
			Misses   uint64 `json:"misses"`
			Size     int    `json:"size"`
			Capacity int    `json:"capacity"`
		} `json:"plan_cache"`
		Languages []string `json:"languages"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCache.Hits != 1 || stats.PlanCache.Misses != 1 {
		t.Errorf("plan_cache = %+v, want 1 hit and 1 miss", stats.PlanCache)
	}
	if stats.PlanCache.Capacity != 64 {
		t.Errorf("capacity = %d, want the configured 64", stats.PlanCache.Capacity)
	}
	if len(stats.Languages) != 5 {
		t.Errorf("languages = %v, want all five", stats.Languages)
	}
}
