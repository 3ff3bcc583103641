package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"rmarace/internal/obs"
)

// waitSessions polls the session list until n sessions exist, returning
// them newest first.
func waitSessions(t testing.TB, client *http.Client, base string, n int) []*Verdict {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		var list []*Verdict
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list) >= n {
			return list
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d sessions (have %d)", n, len(list))
		}
		time.Sleep(time.Millisecond)
	}
}

// postAsync streams body to the analyze endpoint in the background and
// delivers the decoded response document.
func postAsync(client *http.Client, base, tenant string, body io.Reader) chan *Verdict {
	ch := make(chan *Verdict, 1)
	go func() {
		req, err := http.NewRequest("POST", base+"/v1/analyze", body)
		if err != nil {
			ch <- nil
			return
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := client.Do(req)
		if err != nil {
			ch <- nil
			return
		}
		var v Verdict
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			ch <- nil
			return
		}
		ch <- &v
	}()
	return ch
}

type watchResult struct {
	v     *Verdict
	snaps []obs.ProgressSnapshot
	err   error
}

// watchAsync subscribes to a session's event stream in the background,
// collecting every progress snapshot until the terminal verdict.
func watchAsync(client *http.Client, base, session string) chan watchResult {
	ch, _ := watchAsyncFirst(client, base, session)
	return ch
}

// watchAsyncFirst is watchAsync plus a channel closed once the watcher
// has received its first progress event.
func watchAsyncFirst(client *http.Client, base, session string) (chan watchResult, chan struct{}) {
	ch := make(chan watchResult, 1)
	first := make(chan struct{})
	go func() {
		var snaps []obs.ProgressSnapshot
		v, err := Watch(context.Background(), base, session, client, func(s obs.ProgressSnapshot) {
			if len(snaps) == 0 {
				close(first)
			}
			snaps = append(snaps, s)
		})
		ch <- watchResult{v: v, snaps: snaps, err: err}
	}()
	return ch, first
}

// checkTerminal asserts the invariants every finished watch shares: at
// least one progress event, monotone counters, a terminal last
// snapshot, and a done verdict for the expected session.
func checkTerminal(t *testing.T, res watchResult, session string) {
	t.Helper()
	if res.err != nil {
		t.Fatalf("watch: %v", res.err)
	}
	if res.v == nil || res.v.Session != session || res.v.State != "done" {
		t.Fatalf("terminal verdict = %+v, want done session %s", res.v, session)
	}
	if len(res.snaps) == 0 {
		t.Fatal("no progress events before the verdict")
	}
	for i := 1; i < len(res.snaps); i++ {
		if res.snaps[i].Records < res.snaps[i-1].Records || res.snaps[i].Events < res.snaps[i-1].Events {
			t.Fatalf("counters went backwards: %+v -> %+v", res.snaps[i-1], res.snaps[i])
		}
	}
	if last := res.snaps[len(res.snaps)-1]; last.Stage != "done" {
		t.Fatalf("last progress stage = %q, want done", last.Stage)
	}
}

// TestEventsMidStream: subscribe while a chunked upload is in flight;
// the stream must carry multiple progress events with moving counters
// and finish with the verdict.
func TestEventsMidStream(t *testing.T) {
	_, srv := newTestDaemon(t, Config{EventPoll: 2 * time.Millisecond})
	cfg := safeCfg(11)
	cfg.Events = 4000
	data := genTrace(t, cfg, "json")

	pr, pw := io.Pipe()
	done := postAsync(srv.Client(), srv.URL, "streamer", pr)
	if _, err := pw.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	id := waitSessions(t, srv.Client(), srv.URL, 1)[0].Session
	watch := watchAsync(srv.Client(), srv.URL, id)
	// Let the watcher see the half-fed state before the rest arrives.
	time.Sleep(10 * time.Millisecond)
	if _, err := pw.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-watch
	checkTerminal(t, res, id)
	if len(res.snaps) < 2 {
		t.Fatalf("want >=2 progress events mid-stream, got %d", len(res.snaps))
	}
	v := <-done
	if v == nil || v.Session != id || v.State != "done" {
		t.Fatalf("submit verdict = %+v", v)
	}
	if last := res.snaps[len(res.snaps)-1]; last.Records == 0 || last.Events != int64(v.Events) {
		t.Fatalf("final progress %+v disagrees with verdict events %d", last, v.Events)
	}
}

// TestEventsQueuedSession: a watcher who subscribes before the session
// gets a worker slot sees stage "queued" first, then the session's
// whole lifecycle through to the verdict.
func TestEventsQueuedSession(t *testing.T) {
	_, srv := newTestDaemon(t, Config{Workers: 2, MaxSessions: 8, EventPoll: 2 * time.Millisecond})

	// Occupy both worker slots with stalled uploads.
	var hogWriters []*io.PipeWriter
	var hogDone []chan *Verdict
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		hogWriters = append(hogWriters, pw)
		hogDone = append(hogDone, postAsync(srv.Client(), srv.URL, fmt.Sprintf("hog%d", i), pr))
		waitSessions(t, srv.Client(), srv.URL, i+1)
	}

	// The third session queues on the pool semaphore.
	pr, pw := io.Pipe()
	done := postAsync(srv.Client(), srv.URL, "queued", pr)
	id := waitSessions(t, srv.Client(), srv.URL, 3)[0].Session
	watch, first := watchAsyncFirst(srv.Client(), srv.URL, id)

	// Release the hogs only once the watcher holds its first snapshot,
	// taken while the session still waited for a slot; then feed the
	// queued session.
	select {
	case <-first:
	case res := <-watch:
		t.Fatalf("watch ended before its first progress event: %+v", res)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the first progress event")
	}
	for _, w := range hogWriters {
		if _, err := w.Write(genTrace(t, safeCfg(1), "json")); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	if _, err := pw.Write(genTrace(t, safeCfg(2), "json")); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-watch
	checkTerminal(t, res, id)
	if first := res.snaps[0]; first.Stage != "queued" {
		t.Fatalf("first progress stage = %q, want queued (subscribed before start)", first.Stage)
	}
	if v := <-done; v == nil || v.State != "done" {
		t.Fatalf("queued session verdict = %+v", v)
	}
	for _, ch := range hogDone {
		if v := <-ch; v == nil || v.State != "done" {
			t.Fatalf("hog verdict = %+v", v)
		}
	}
}

// TestEventsConcurrentSubscribers: many watchers on one live session
// (and more after it completes) all see the same terminal verdict.
// Run under -race, this exercises the probe's lock-free read side.
func TestEventsConcurrentSubscribers(t *testing.T) {
	_, srv := newTestDaemon(t, Config{EventPoll: 2 * time.Millisecond})
	cfg := safeCfg(13)
	cfg.Events = 4000
	data := genTrace(t, cfg, "json")

	pr, pw := io.Pipe()
	done := postAsync(srv.Client(), srv.URL, "crowd", pr)
	if _, err := pw.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	id := waitSessions(t, srv.Client(), srv.URL, 1)[0].Session

	const watchers = 6
	var chans [watchers]chan watchResult
	for i := range chans {
		chans[i] = watchAsync(srv.Client(), srv.URL, id)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := pw.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	for _, ch := range chans {
		checkTerminal(t, <-ch, id)
	}
	if v := <-done; v == nil || v.State != "done" {
		t.Fatalf("session verdict = %+v", v)
	}

	// Late subscribers get the terminal state replayed.
	var late sync.WaitGroup
	for i := 0; i < 3; i++ {
		late.Add(1)
		go func() {
			defer late.Done()
			res := <-watchAsync(srv.Client(), srv.URL, id)
			if res.err != nil || res.v == nil || res.v.State != "done" {
				t.Errorf("late watcher: %+v err=%v", res.v, res.err)
			}
			if len(res.snaps) == 0 || res.snaps[0].Stage != "done" {
				t.Errorf("late watcher progress = %+v, want replayed done stage", res.snaps)
			}
		}()
	}
	late.Wait()
}

// TestSpansEndpoint: a ?spans=1 session serves a loadable Chrome-trace
// JSON timeline; sessions without capture answer 404.
func TestSpansEndpoint(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	code, v := submit(t, srv.Client(), srv.URL, "spanner",
		bytes.NewReader(genTrace(t, safeCfg(5), "json")), "?spans=1&spandepth=256")
	if code != http.StatusOK || v == nil {
		t.Fatalf("submit = %d %+v", code, v)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/sessions/" + v.Session + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/spans status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/spans content-type %q", ct)
	}
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("span timeline is not a JSON event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("span timeline is empty")
	}
	for _, ev := range events[:min(len(events), 16)] {
		if _, ok := ev["ph"].(string); !ok {
			t.Fatalf("event without a phase: %v", ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event without a name: %v", ev)
		}
	}

	// No capture requested -> 404 with the hint.
	code2, v2 := submit(t, srv.Client(), srv.URL, "spanner",
		bytes.NewReader(genTrace(t, safeCfg(6), "json")), "")
	if code2 != http.StatusOK || v2 == nil {
		t.Fatalf("second submit = %d", code2)
	}
	resp2, err := srv.Client().Get(srv.URL + "/v1/sessions/" + v2.Session + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("spanless session /spans status = %d, want 404", resp2.StatusCode)
	}
}

// TestStageLatencyHistograms: one served session leaves its per-stage
// wall time in the daemon's /metrics and in the session's own report.
func TestStageLatencyHistograms(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	code, v := submit(t, srv.Client(), srv.URL, "stages",
		bytes.NewReader(genTrace(t, safeCfg(9), "json")), "")
	if code != http.StatusOK || v == nil {
		t.Fatalf("submit = %d", code)
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, m := range []string{
		`rmarace_serve_stage_ingest_nanos_count{tenant="stages"} 1`,
		`rmarace_serve_stage_drain_nanos_count{tenant="stages"} 1`,
		`rmarace_serve_stage_report_nanos_count{tenant="stages"} 1`,
	} {
		if !strings.Contains(string(prom), m) {
			t.Errorf("/metrics missing %q", m)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/sessions/" + v.Session + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(rep), `"serve_stage_ingest_nanos"`) ||
		!strings.Contains(string(rep), `"serve_stage_drain_nanos"`) {
		t.Error("session report missing stage-latency histograms")
	}
}

// TestHostileTenantNameEscaped: a tenant name carrying quote,
// backslash and newline (reachable via the tenant query parameter)
// must not corrupt the Prometheus exposition.
func TestHostileTenantNameEscaped(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	name := "evil\"x\\y\nz"
	code, v := submit(t, srv.Client(), srv.URL, "",
		bytes.NewReader(genTrace(t, safeCfg(4), "json")), "?tenant="+url.QueryEscape(name))
	if code != http.StatusOK || v == nil || v.Tenant != name {
		t.Fatalf("submit = %d %+v", code, v)
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `rmarace_serve_sessions_total{tenant="evil\"x\\y\nz"} 1`
	if !strings.Contains(string(prom), want) {
		t.Errorf("/metrics missing escaped tenant label %q", want)
	}
	if strings.Contains(string(prom), "evil\"x") {
		t.Error("/metrics leaked an unescaped tenant name")
	}
}

// TestAdmissionRejectRetryAfter: a 429 carries the configured
// Retry-After hint and a JSON error body.
func TestAdmissionRejectRetryAfter(t *testing.T) {
	_, srv := newTestDaemon(t, Config{MaxSessions: 1, RetryAfter: 3 * time.Second})
	pr, pw := io.Pipe()
	done := postAsync(srv.Client(), srv.URL, "hog", pr)
	waitSessions(t, srv.Client(), srv.URL, 1)

	req, err := http.NewRequest("POST", srv.URL+"/v1/analyze", bytes.NewReader(genTrace(t, safeCfg(1), "json")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "turned-away")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("429 content-type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("429 body is not a JSON error document: %q", body)
	}

	if _, err := pw.Write(genTrace(t, safeCfg(2), "json")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
}

// TestSubmitRetriesOn429: the client retries a 429 per its Retry-After
// hint, re-opening the body each attempt, and gives up when out of
// retries.
func TestSubmitRetriesOn429(t *testing.T) {
	data := []byte("trace body")
	var mu sync.Mutex
	attempts := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		if !bytes.Equal(got, data) {
			t.Errorf("attempt body = %q, want full re-sent body", got)
		}
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"daemon at capacity"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"session":"s-000001","state":"done","method":"our-contribution"}`)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	opens := 0
	open := func() (io.ReadCloser, error) {
		opens++
		return io.NopCloser(bytes.NewReader(data)), nil
	}
	status, v, err := Submit(context.Background(), srv.URL, open, SubmitOpts{Tenant: "t", Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || v == nil || v.Session != "s-000001" {
		t.Fatalf("Submit = %d %+v", status, v)
	}
	if attempts != 2 || opens != 2 {
		t.Fatalf("attempts=%d opens=%d, want 2/2", attempts, opens)
	}

	// No retries: the 429 surfaces with its decoded error.
	attempts = 0
	status, v, err = Submit(context.Background(), srv.URL, open, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests || v == nil || v.Error != "daemon at capacity" {
		t.Fatalf("no-retry Submit = %d %+v", status, v)
	}
}
