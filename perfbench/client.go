package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// requestTimeout bounds one HTTP call, so a wedged daemon fails the
// run instead of hanging it past the benchmark's time limit.
const requestTimeout = 60 * time.Second

// client is one benchmark process's view of coltd. Its HTTP calls are
// written here, independent of the repository's load generator, so
// changes there cannot move these numbers.
type client struct {
	base string
	hc   *http.Client
	// spans, when set, records every request's spans and fetches each
	// simulated job's server timeline (the traced run).
	spans *spanRecorder

	// kept holds up to keepReports verified report bodies by spec hash,
	// the workload's own bytes for the traced run's cache timings.
	keepReports int
	keptMu      sync.Mutex
	kept        map[string][]byte

	// verified holds, by claimed hash and experiment, the bytes of
	// each report that passed verify.
	verifiedMu sync.Mutex
	verified   map[string][]byte

	// bodies recycles report buffers: the closed loop hands each one
	// back once the report is verified, so the benchmark allocates
	// (and its GC scans, on the CPUs it shares with coltd) almost
	// nothing per request.
	bodies sync.Pool
}

// verify checks a report's bytes against the SHA-256 coltd claims
// for them and the experiment's shape. Bytes identical to a report
// already verified under the same claim have that hash and shape, so
// they are compared instead: a warm read costs the benchmark a memory
// compare rather than a SHA-256 and a JSON parse of ~83 KB, on the
// CPUs it shares with coltd.
func (c *client) verify(rep []byte, want, experiment string) error {
	key := want + " " + experiment
	c.verifiedMu.Lock()
	prev, seen := c.verified[key]
	c.verifiedMu.Unlock()
	if seen && bytes.Equal(prev, rep) {
		return nil
	}
	sum := sha256.Sum256(rep)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("report sha256 %s != X-Report-Sha256 %q", got, want)
	}
	if err := checkReport(rep, experiment); err != nil {
		return err
	}
	if !seen {
		c.verifiedMu.Lock()
		if c.verified == nil {
			c.verified = make(map[string][]byte)
		}
		c.verified[key] = bytes.Clone(rep)
		c.verifiedMu.Unlock()
	}
	return nil
}

func (c *client) keep(hash string, rep []byte) {
	c.keptMu.Lock()
	defer c.keptMu.Unlock()
	if len(c.kept) < c.keepReports {
		if c.kept == nil {
			c.kept = make(map[string][]byte)
		}
		c.kept[hash] = bytes.Clone(rep)
	}
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobStatus is the subset of coltd's job snapshot the client reads.
type jobStatus struct {
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Cached bool   `json:"cached"`
}

// timelineMark is one phase edge of a job's server-side timeline.
type timelineMark struct {
	Phase  string `json:"phase"`
	UnixNs int64  `json:"unix_ns"`
}

// outcome is one request's result and accounting.
type outcome struct {
	idx  int
	spec spec
	// ok means the report was served and verified; latency is then
	// submit-to-verified-bytes, and +Inf otherwise (a failed request
	// misses every latency limit).
	ok      bool
	latency float64 // ms
	// failure describes a failed request; mismatch is set when the
	// failure is wrong output (hash, record count or failures list)
	// rather than an error or refusal.
	failure  string
	mismatch bool

	specHash, sum string
	report        []byte // the verified bytes; loop recycles them
	submitMs      float64
	reportMs      float64
	waits         int // status/event-stream calls made to await the job
	cached        bool
	coalesced     bool
	timeline      []timelineMark
	start, end    time.Time
}

func (o *outcome) fail(mismatch bool, format string, args ...any) outcome {
	o.ok = false
	o.mismatch = mismatch
	o.failure = fmt.Sprintf(format, args...)
	o.latency = math.Inf(1)
	return *o
}

// do runs one request: submit, await a terminal state, fetch the
// report and verify it. tid is the closed-loop client's number (its
// trace row).
func (c *client) do(idx int, s spec, tid int) outcome {
	o := outcome{idx: idx, spec: s, start: time.Now()}
	body, err := json.Marshal(s)
	if err != nil {
		return o.fail(false, "encoding spec: %v", err)
	}
	t := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return o.fail(false, "submit: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.submitMs = msSince(t)
	c.span("http.submit", tid, t)
	if err != nil {
		return o.fail(false, "submit: reading body: %v", err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return o.fail(false, "submit refused: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return o.fail(false, "submit: decoding status: %v", err)
	}
	o.cached = st.Cached
	o.coalesced = resp.StatusCode == http.StatusOK && !st.Cached
	o.specHash = st.Hash
	if !terminal(st.State) {
		t = time.Now()
		o.waits++
		st, err = c.await(st.ID)
		c.span("http.await", tid, t)
		if err != nil {
			return o.fail(false, "awaiting job %s: %v", st.ID, err)
		}
	}
	if st.State != "done" {
		return o.fail(false, "job %s ended %s: %s", st.ID, st.State, st.Error)
	}

	t = time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		return o.fail(false, "report: %v", err)
	}
	rep, err := c.readBody(resp)
	resp.Body.Close()
	o.reportMs = msSince(t)
	c.span("http.report", tid, t)
	if err != nil {
		return o.fail(false, "report: reading body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return o.fail(false, "report refused: status %d: %s", resp.StatusCode, strings.TrimSpace(string(rep)))
	}
	o.end = time.Now()
	o.latency = float64(o.end.Sub(o.start)) / 1e6
	if h := resp.Header.Get("X-Colt-Spec-Hash"); h != o.specHash {
		return o.fail(true, "report spec hash %q != submitted job hash %q", h, o.specHash)
	}
	want := resp.Header.Get("X-Report-Sha256")
	if err := c.verify(rep, want, s.Experiment); err != nil {
		return o.fail(true, "%v", err)
	}
	o.sum = want
	o.ok = true
	o.report = rep
	c.keep(o.specHash, rep)
	if c.spans != nil {
		c.spans.add("request "+s.Experiment, "client", tid, o.start, o.end)
		if !o.cached {
			o.timeline, err = c.timeline(st.ID)
			if err != nil {
				return o.fail(false, "timeline of job %s: %v", st.ID, err)
			}
			c.timelineSpans(o.timeline, tid)
		}
	}
	return o
}

// readBody reads a response body into a recycled buffer. Reports are
// sent chunked, without a Content-Length, so the buffer grows as
// io.ReadAll's would, but only until it has held the largest report.
func (c *client) readBody(resp *http.Response) ([]byte, error) {
	var b []byte
	if p, ok := c.bodies.Get().(*[]byte); ok {
		b = (*p)[:0]
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// recycle hands a report buffer back for a later readBody.
func (c *client) recycle(b []byte) {
	if b != nil {
		c.bodies.Put(&b)
	}
}

func (c *client) span(name string, tid int, start time.Time) {
	if c.spans != nil {
		c.spans.add(name, "http", tid, start, time.Now())
	}
}

// serverPhases names the timeline deltas the traced run reports:
// metric name, opening mark, closing mark.
var serverPhases = []struct{ metric, from, to string }{
	{"server.journal_ms", "admitted", "journaled"},
	{"server.queue_wait_ms", "queued", "running"},
	{"server.run_ms", "running", "committed"},
	{"server.serve_lag_ms", "committed", "served"},
}

// phaseBounds returns the from and to marks of a timeline in unix ns,
// and whether both are present.
func phaseBounds(marks []timelineMark, from, to string) (a, b int64, ok bool) {
	for _, m := range marks {
		switch m.Phase {
		case from:
			a = m.UnixNs
		case to:
			b = m.UnixNs
		}
	}
	return a, b, a != 0 && b != 0
}

// timelineSpans records the server's phases as spans on the row below
// the client's own.
func (c *client) timelineSpans(marks []timelineMark, tid int) {
	for _, p := range serverPhases {
		if a, b, ok := phaseBounds(marks, p.from, p.to); ok {
			c.spans.add(strings.TrimSuffix(p.metric, "_ms"), "server", serverTid(tid), time.Unix(0, a), time.Unix(0, b))
		}
	}
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// await follows the job's event stream to its end event, whose data is
// the terminal job snapshot.
func (c *client) await(id string) (jobStatus, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobStatus{ID: id}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return jobStatus{ID: id}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	end := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			end = true
			continue
		}
		if end && strings.HasPrefix(line, "data: ") {
			var st jobStatus
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return jobStatus{ID: id}, fmt.Errorf("decoding end event: %v", err)
			}
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobStatus{ID: id}, err
	}
	return jobStatus{ID: id}, fmt.Errorf("event stream closed before the end event")
}

func (c *client) timeline(id string) ([]timelineMark, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/timeline")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var tl struct {
		Marks []timelineMark `json:"marks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		return nil, err
	}
	return tl.Marks, nil
}

// checkReport verifies a report's shape: the experiment's record count
// and no failures.
func checkReport(rep []byte, experiment string) error {
	var r struct {
		Experiment string            `json:"experiment"`
		Records    []json.RawMessage `json:"records"`
		Failures   []json.RawMessage `json:"failures"`
	}
	if err := json.Unmarshal(rep, &r); err != nil {
		return fmt.Errorf("report is not JSON: %v", err)
	}
	if r.Experiment != experiment {
		return fmt.Errorf("report is for experiment %q, want %q", r.Experiment, experiment)
	}
	if want, ok := expectedRecords[experiment]; !ok || len(r.Records) != want {
		return fmt.Errorf("report has %d records, want %d", len(r.Records), want)
	}
	if len(r.Failures) != 0 {
		return fmt.Errorf("report lists %d failures", len(r.Failures))
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// loop drives the closed loop: clients goroutines each send their
// next request only after the previous one completes. Requests are
// numbered from first in one shared sequence, request i being req(i);
// a client takes the next number while the window is open or fewer
// than minReqs have been issued, so the issued numbers are always
// contiguous. Every issued request runs to completion.
func (c *client) loop(req func(i int) spec, clients, first, minReqs int, window time.Duration) []outcome {
	var (
		mu   sync.Mutex
		next = first
		outs []outcome
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(window)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if time.Now().After(deadline) && next-first >= minReqs {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				o := c.do(i, req(i), tid)
				c.recycle(o.report)
				o.report = nil
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}(k + 1)
	}
	wg.Wait()
	return outs
}
