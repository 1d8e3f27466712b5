package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// clients is the closed loop's size: two clients, one per core of the
// host the benchmark was sized on.
const clients = 2

// pageLimit is the page size every read asks for.
const pageLimit = 100

// request is one /v1 call a client makes: a read (lang, query) or a
// write (an NDJSON body of triples).
type request struct {
	id      string
	lang    string
	query   string
	body    []byte
	triples int
	// check verifies a read's reply; a non-nil error fails the run.
	check func(rep *reply) error
}

func (r *request) read() bool { return r.body == nil }

// generator yields one client's seeded request sequence. seq counts from
// 0; acked reports that the write at seq was acknowledged.
type generator interface {
	next(seq int) request
	acked(seq int)
}

// reply is the parsed answer to a read.
type reply struct {
	size     int         // X-Trial-Result-Size
	triples  [][3]string // the page, in order
	pageHash uint64
	trace    *span // server span tree of a traced read
}

// span is the server's ?trace=1 span tree.
type span struct {
	Name     string         `json:"name"`
	DurUs    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*span        `json:"children,omitempty"`
}

// sample is one completed request.
type sample struct {
	id      string
	read    bool
	triples int
	start   time.Duration // since the phase began
	dur     time.Duration
	ok      bool   // 2xx, no transport error
	failure string // status or transport error when !ok
	wrong   string // answer check failure
	trace   *span
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	samples [][]sample // per client, in order
	t0      time.Time  // when the phase began
	wall    time.Duration
}

func (p *phase) all() []sample {
	var out []sample
	for _, s := range p.samples {
		out = append(out, s...)
	}
	return out
}

// counts returns how many requests each client completed, which is what
// a replay repeats.
func (p *phase) counts() []int {
	n := make([]int, len(p.samples))
	for i, s := range p.samples {
		n[i] = len(s)
	}
	return n
}

// drive runs the closed loop against base. With replay nil each client
// runs until dur has elapsed (finishing the request in flight);
// otherwise client c sends exactly replay[c] requests. traced asks the
// server for the span tree of every read.
func drive(base string, gens []generator, dur time.Duration, replay []int, traced bool) *phase {
	start := time.Now()
	p := &phase{samples: make([][]sample, len(gens)), t0: start}
	var wg sync.WaitGroup
	for c, g := range gens {
		wg.Add(1)
		go func(c int, g generator) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for seq := 0; ; seq++ {
				if replay != nil && seq >= replay[c] {
					return
				}
				if replay == nil && time.Since(start) >= dur {
					return
				}
				req := g.next(seq)
				s := send(hc, base, &req, traced, start)
				if s.ok && !req.read() {
					g.acked(seq)
				}
				p.samples[c] = append(p.samples[c], s)
			}
		}(c, g)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// newClient returns a client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}

// send makes one request and checks its answer.
func send(hc *http.Client, base string, req *request, traced bool, t0 time.Time) sample {
	s := sample{id: req.id, read: req.read(), triples: req.triples}
	var hreq *http.Request
	var err error
	if req.read() {
		v := url.Values{"q": {req.query}, "lang": {req.lang}, "format": {"json"}, "limit": {strconv.Itoa(pageLimit)}}
		if traced {
			v.Set("trace", "1")
		}
		hreq, err = http.NewRequest(http.MethodGet, base+"/v1/query?"+v.Encode(), nil)
	} else {
		hreq, err = http.NewRequest(http.MethodPost, base+"/v1/triples", bytes.NewReader(req.body))
		if err == nil {
			hreq.Header.Set("Content-Type", "application/x-ndjson")
		}
	}
	if err != nil {
		s.failure = err.Error()
		return s
	}
	begin := time.Now()
	s.start = begin.Sub(t0)
	resp, err := hc.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.dur = time.Since(begin)
	switch {
	case err != nil:
		s.failure = err.Error()
		return s
	case resp.StatusCode/100 != 2:
		s.failure = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))
		return s
	}
	s.ok = true
	if !req.read() {
		return s
	}
	rep, err := parseReply(resp.Header, body)
	if err == nil && req.check != nil {
		err = req.check(rep)
	}
	if err != nil {
		s.wrong = fmt.Sprintf("%s %q: %v", req.lang, req.query, err)
	}
	s.trace = rep.trace
	return s
}

// parseReply reads a format=json page: one {"s","p","o"} object per
// line, then the {"trace": ...} object when tracing.
func parseReply(h http.Header, body []byte) (*reply, error) {
	rep := &reply{}
	size, err := strconv.Atoi(h.Get("X-Trial-Result-Size"))
	if err != nil {
		return rep, fmt.Errorf("bad X-Trial-Result-Size %q", h.Get("X-Trial-Result-Size"))
	}
	rep.size = size
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var line struct {
			S, P, O string
			Trace   *span `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return rep, fmt.Errorf("bad reply line %q: %v", sc.Text(), err)
		}
		if line.Trace != nil {
			rep.trace = line.Trace
			continue
		}
		rep.triples = append(rep.triples, [3]string{line.S, line.P, line.O})
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	rep.pageHash = hashPage(rep.triples)
	return rep, nil
}

// hashPage fingerprints a page of named triples, order included.
func hashPage(ts [][3]string) uint64 {
	h := fnv.New64a()
	for _, t := range ts {
		fmt.Fprintf(h, "%s\t%s\t%s\n", t[0], t[1], t[2])
	}
	return h.Sum64()
}
