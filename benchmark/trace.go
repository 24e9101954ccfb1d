package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one request share
// its ID; Parent names the span that caused this one. Times are on the
// recorder's clock (nanoseconds since it started). A span's self time is
// its duration minus what its children cover: for the root loadgen.tx that
// is the time the request spent inside the ordering service, which the
// obs stage histograms split further by distribution.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps the spans of a traced run in memory and writes them out
// when the run ends. It records one request in every; both halves of a
// request (the send returning, the delivery) may arrive in either order.
type spanLog struct {
	every   uint64
	rpcName string // the child span around the broadcast call

	mu      sync.Mutex
	pending map[uint64]*txTimes
	spans   []span
}

type txTimes struct {
	due, called, returned, delivered time.Duration
	sentSeen, deliveredSeen          bool
}

func newSpanLog(every uint64, rpcName string) *spanLog {
	if every == 0 {
		every = 1
	}
	return &spanLog{every: every, rpcName: rpcName, pending: make(map[uint64]*txTimes)}
}

func (l *spanLog) entry(seq uint64) *txTimes {
	t, ok := l.pending[seq]
	if !ok {
		t = &txTimes{}
		l.pending[seq] = t
	}
	return t
}

func (l *spanLog) sent(seq uint64, due, called, returned time.Duration) {
	if seq%l.every != 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.entry(seq)
	t.due, t.called, t.returned, t.sentSeen = due, called, returned, true
	l.finish(seq, t)
}

func (l *spanLog) delivered(seq uint64, at time.Duration) {
	if seq%l.every != 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.entry(seq)
	t.delivered, t.deliveredSeen = at, true
	l.finish(seq, t)
}

// finish emits the request's spans once both halves are in. Callers hold mu.
func (l *spanLog) finish(seq uint64, t *txTimes) {
	if !t.sentSeen || !t.deliveredSeen {
		return
	}
	delete(l.pending, seq)
	waitFrom := t.returned
	if waitFrom > t.delivered {
		waitFrom = t.delivered // delivered before the call returned
	}
	l.spans = append(l.spans,
		span{Name: "loadgen.tx", ID: seq, StartNs: int64(t.due), EndNs: int64(t.delivered)},
		span{Name: l.rpcName, ID: seq, Parent: "loadgen.tx", StartNs: int64(t.called), EndNs: int64(t.returned)},
		span{Name: "loadgen.deliver_wait", ID: seq, Parent: "loadgen.tx", StartNs: int64(waitFrom), EndNs: int64(t.delivered)},
	)
}

// add records a finished span directly (the replay workload's reads).
func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// traceDir is where span files go: benchmark/out, git-ignored. The
// benchmark runs from the checkout root (run.sh) or from its own
// directory (go run .).
func traceDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "run.sh")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (l *spanLog) write(workload string) (string, error) {
	l.mu.Lock()
	spans := l.spans
	l.mu.Unlock()
	dir := traceDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	raw, err := json.Marshal(struct {
		Workload    string `json:"workload"`
		Clock       string `json:"clock"`
		SampleEvery uint64 `json:"sample_every"`
		Spans       []span `json:"spans"`
	}{workload, "nanoseconds since the load generator started", l.every, spans})
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
