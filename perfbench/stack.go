package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

// stack is one running serving stack: the server, the storage engine
// behind it (nil for the in-memory workload) and its loopback listener.
type stack struct {
	srv   *serve.Server
	store *triplestore.Store
	disk  *storage.Disk
	rec   *recorder // nil unless the engine is wrapped
	hs    *http.Server
	url   string
	done  chan error
}

// listen serves srv on a fresh loopback port and returns once a health
// probe has been answered, i.e. once the stack can serve.
func listen(srv *serve.Server, store *triplestore.Store, disk *storage.Disk, rec *recorder) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{
		srv: srv, store: store, disk: disk, rec: rec,
		hs:   &http.Server{Handler: srv},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { st.done <- st.hs.Serve(ln) }()
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(st.url + "/v1/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		st.stopHTTP()
		srv.Close()
		return nil, fmt.Errorf("health probe: %w", err)
	}
	return st, nil
}

// stopHTTP stops the listener, drains in-flight requests and waits for
// the serve goroutine to exit.
func (st *stack) stopHTTP() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// close stops the stack the way an operator would: HTTP first, then the
// server, which flushes and closes the storage engine.
func (st *stack) close() error {
	err := st.stopHTTP()
	if cerr := st.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// abandon stops HTTP and closes the disk engine without flushing its
// memtable, so the next Open recovers from the WAL alone — the crash
// path, minus the kill.
func (st *stack) abandon() error {
	err := st.stopHTTP()
	if aerr := st.disk.Abandon(); err == nil {
		err = aerr
	}
	return err
}

// engineCall is one timed call through the recorder.
type engineCall struct {
	op        string
	requestID string
	at        time.Time
	dur       time.Duration
}

// recorder is the traced run's storage.Engine: it forwards every method
// to the wrapped engine unchanged and times ApplyNDJSON, ApplyBatch,
// Pin, Snapshot and Flush. A write is tied to the request that sent it
// through the request id the benchmark embeds in the batch's subject
// names (see batchRequestID).
type recorder struct {
	storage.Engine
	mu    sync.Mutex
	calls []engineCall
}

func newRecorder(eng storage.Engine) *recorder {
	return &recorder{Engine: eng}
}

func (r *recorder) record(op, id string, start time.Time) {
	c := engineCall{op: op, requestID: id, at: start, dur: time.Since(start)}
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

// snapshot returns the calls recorded so far.
func (r *recorder) snapshot() []engineCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]engineCall(nil), r.calls...)
}

func (r *recorder) ApplyBatch(ops []triplestore.Op) (triplestore.BatchResult, error) {
	start := time.Now()
	res, err := r.Engine.ApplyBatch(ops)
	id := ""
	if len(ops) > 0 {
		id = batchRequestID(ops[0].S)
	}
	r.record("apply_batch", id, start)
	return res, err
}

func (r *recorder) ApplyNDJSON(rd io.Reader, defaultRel string) (triplestore.BatchResult, error) {
	start := time.Now()
	res, err := r.Engine.ApplyNDJSON(rd, defaultRel)
	r.record("apply_ndjson", "", start)
	return res, err
}

func (r *recorder) Pin() *storage.Pin {
	start := time.Now()
	p := r.Engine.Pin()
	r.record("pin", "", start)
	return p
}

func (r *recorder) Snapshot() *triplestore.Store {
	start := time.Now()
	s := r.Engine.Snapshot()
	r.record("snapshot", "", start)
	return s
}

func (r *recorder) Flush() error {
	start := time.Now()
	err := r.Engine.Flush()
	r.record("flush", "", start)
	return err
}

// Written subjects are named "w.<request id>.s<i>"; batchRequestID
// recovers the request id from one, or returns "".
func batchRequestID(subject string) string {
	rest, ok := strings.CutPrefix(subject, "w.")
	if !ok {
		return ""
	}
	if i := strings.LastIndex(rest, ".s"); i >= 0 {
		return rest[:i]
	}
	return ""
}
