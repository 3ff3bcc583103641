package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// retired reports whether the daemon moved session id into its
// retention window.
func retired(d *Daemon, id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, done := range d.done {
		if done == id {
			return true
		}
	}
	return false
}

// checkFailed asserts a failed, retired session whose slots are back.
func checkFailed(t *testing.T, d *Daemon, code, wantCode int, v *Verdict, wantErr string) {
	t.Helper()
	if code != wantCode || v == nil {
		t.Fatalf("status %d (verdict %v), want %d", code, v, wantCode)
	}
	if v.State != "failed" || !strings.Contains(v.Error, wantErr) {
		t.Fatalf("verdict state %q error %q, want failed with %q", v.State, v.Error, wantErr)
	}
	if !retired(d, v.Session) {
		t.Fatalf("session %s not retired", v.Session)
	}
	if got := d.Registry().Total(obs.ServeActiveSessions); got != 0 {
		t.Fatalf("serve_active_sessions = %d after the session, want 0", got)
	}
}

// TestOutOfRangeRankRejected: a record naming a rank outside the
// header's world fails its session with 400 and the record's position,
// under MUST-RMA too, whose per-rank clocks it would otherwise index
// out of range.
func TestOutOfRangeRankRejected(t *testing.T) {
	d, srv := newTestDaemon(t, Config{})
	const head = `{"kind":"header","ranks":2,"window":"w"}
{"kind":"access","owner":0,"rank":1,"lo":0,"hi":7,"type":"rma_write","time":1}
`
	for _, rank := range []string{"7", "-1"} {
		body := head + `{"kind":"access","owner":0,"rank":` + rank + `,"lo":8,"hi":15,"type":"rma_write","time":2}` + "\n"
		code, v := submit(t, srv.Client(), srv.URL, "t", strings.NewReader(body), "?method=must-rma")
		checkFailed(t, d, code, http.StatusBadRequest, v, "line 3")
	}

	var bin bytes.Buffer
	w, err := tracebin.NewWriter(&bin, trace.Header{Ranks: 2, Window: "w"})
	if err != nil {
		t.Fatal(err)
	}
	w.Record(trace.Record{Kind: trace.KindEpochEnd, Owner: 0})
	w.Record(trace.Record{Kind: trace.KindRelease, Owner: 0, Rank: 7})
	w.Flush()
	code, v := submit(t, srv.Client(), srv.URL, "t", &bin, "?method=must-rma")
	checkFailed(t, d, code, http.StatusBadRequest, v, "record 2 (offset ")
}

func TestHeaderRanksOverLimitRejected(t *testing.T) {
	d, srv := newTestDaemon(t, Config{})
	for _, ranks := range []int{maxRanks + 1, -2} {
		body := fmt.Sprintf(`{"kind":"header","ranks":%d,"window":"w"}`+"\n", ranks)
		code, v := submit(t, srv.Client(), srv.URL, "t", strings.NewReader(body), "?method=must-rma")
		checkFailed(t, d, code, http.StatusBadRequest, v, fmt.Sprintf("declares %d ranks", ranks))
	}
}

// panicAnalyzer is an analyzer that fails in the middle of a session.
type panicAnalyzer struct{ detector.Analyzer }

func (panicAnalyzer) Access(detector.Event) *detector.Race { panic("injected analyzer fault") }

// TestAnalyzerPanicContained: a panicking analyzer fails its session
// with 500, the session is retired, and the worker slot and the
// active-session gauge are released, so later sessions still run.
func TestAnalyzerPanicContained(t *testing.T) {
	d, srv := newTestDaemon(t, Config{Workers: 2})
	// Baseline sessions get an analyzer that panics; the rest are healthy.
	d.newFactory = func(m detector.Method, ranks int, store string, shards int, rec obs.Recorder) (func(int) detector.Analyzer, *detector.MustShared, error) {
		f, shared, err := NewAnalyzerFactory(m, ranks, store, shards, rec)
		if m != detector.Baseline {
			return f, shared, err
		}
		return func(owner int) detector.Analyzer { return panicAnalyzer{f(owner)} }, shared, err
	}
	data := genTrace(t, safeCfg(1), "bin")
	// More panicking sessions than worker slots: with a leaked slot the
	// later ones would block until the client's timeout.
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 3; i++ {
		code, v := submit(t, client, srv.URL, "t", bytes.NewReader(data), "?method=baseline")
		checkFailed(t, d, code, http.StatusInternalServerError, v, "injected analyzer fault")
	}
	code, v := submit(t, client, srv.URL, "t", bytes.NewReader(data), "")
	if code != http.StatusOK || v == nil || v.State != "done" {
		t.Fatalf("healthy session after the faults: status %d, verdict %+v", code, v)
	}
}
