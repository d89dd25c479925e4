package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeColtd answers the three calls a request makes. state is the
// job's terminal state, records the report's record count, and
// badSum makes X-Report-Sha256 disagree with the bytes.
func fakeColtd(t *testing.T, submitStatus int, state string, records int, badSum bool) *httptest.Server {
	t.Helper()
	recs := make([]string, records)
	for i := range recs {
		recs[i] = "{}"
	}
	report := fmt.Sprintf(`{"experiment":"fig18","records":[%s]}`, strings.Join(recs, ","))
	sum := sha256.Sum256([]byte(report))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(submitStatus)
		if submitStatus == http.StatusCreated {
			fmt.Fprint(w, `{"id":"j1","hash":"h1","state":"queued"}`)
		} else {
			fmt.Fprint(w, `{"error":"queue full"}`)
		}
	})
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "event: end\ndata: {\"id\":\"j1\",\"hash\":\"h1\",\"state\":%q}\n\n", state)
	})
	mux.HandleFunc("GET /v1/jobs/j1/report", func(w http.ResponseWriter, r *http.Request) {
		s := hex.EncodeToString(sum[:])
		if badSum {
			s = strings.Repeat("0", 64)
		}
		w.Header().Set("X-Report-Sha256", s)
		w.Header().Set("X-Colt-Spec-Hash", "h1")
		fmt.Fprint(w, report)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFailureAccounting(t *testing.T) {
	cases := []struct {
		name         string
		submitStatus int
		state        string
		records      int
		badSum       bool
		ok, mismatch bool
	}{
		{"verified", http.StatusCreated, "done", 14, false, true, false},
		{"refused", http.StatusServiceUnavailable, "done", 14, false, false, false},
		{"job failed", http.StatusCreated, "failed", 14, false, false, false},
		{"hash mismatch", http.StatusCreated, "done", 14, true, false, true},
		{"wrong record count", http.StatusCreated, "done", 13, false, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := fakeColtd(t, c.submitStatus, c.state, c.records, c.badSum)
			cl := newClient(srv.URL)
			defer cl.close()
			o := cl.do(0, fig18Quick(1), 1)
			if o.ok != c.ok || o.mismatch != c.mismatch {
				t.Fatalf("ok=%v mismatch=%v (%s), want ok=%v mismatch=%v", o.ok, o.mismatch, o.failure, c.ok, c.mismatch)
			}
			if !o.ok && !math.IsInf(o.latency, 1) {
				t.Errorf("failed request latency %g, want +Inf", o.latency)
			}
			if o.ok && (o.waits != 1 || o.latency <= 0) {
				t.Errorf("waits=%d latency=%g, want one wait and a positive latency", o.waits, o.latency)
			}
		})
	}
}

// Bytes already verified under a claimed hash pass without being
// hashed again; different bytes under the same claim are hashed and
// fail, as is a claim that never matched.
func TestVerifySkipsOnlyIdenticalBytes(t *testing.T) {
	report := []byte(`{"experiment":"timeline","records":[{},{}]}`)
	sum := sha256.Sum256(report)
	claim := hex.EncodeToString(sum[:])
	var c client
	for i := 0; i < 2; i++ {
		if err := c.verify(append([]byte(nil), report...), claim, "timeline"); err != nil {
			t.Fatalf("verify #%d: %v", i, err)
		}
	}
	forged := []byte(`{"experiment":"timeline","records":[{},{"x":1}]}`)
	if err := c.verify(forged, claim, "timeline"); err == nil {
		t.Error("different bytes under an already verified claim passed")
	}
	if err := c.verify(report, claim, "fig18"); err == nil {
		t.Error("a timeline report passed as fig18")
	}
	if err := c.verify(report, strings.Repeat("0", 64), "timeline"); err == nil {
		t.Error("a wrong claim passed")
	}
}

// The closed loop issues a contiguous run of request numbers, at least
// minReqs of them even when the window is already over.
func TestLoopIssuesContiguousSequence(t *testing.T) {
	srv := fakeColtd(t, http.StatusCreated, "done", 14, false)
	cl := newClient(srv.URL)
	defer cl.close()
	w, err := workloadByName("cold-fig18")
	if err != nil {
		t.Fatal(err)
	}
	outs := cl.loop(func(i int) spec { return w.request(measureSeed, i) }, 2, 5, 7, time.Nanosecond)
	if len(outs) < 7 {
		t.Fatalf("%d requests issued, want at least 7", len(outs))
	}
	seen := map[int]bool{}
	for _, o := range outs {
		seen[o.idx] = true
		if o.spec != w.request(measureSeed, o.idx) {
			t.Errorf("request %d sent %v, want %v", o.idx, o.spec, w.request(measureSeed, o.idx))
		}
	}
	for i := 5; i < 5+len(outs); i++ {
		if !seen[i] {
			t.Errorf("request %d missing from %d issued", i, len(outs))
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	top := `File: coltd
Type: cpu
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     2.00s 20.00% 20.00%      3.00s 30.00%  colt/internal/cache.(*Cache).Access
     1.50s 15.00% 35.00%      1.50s 15.00%  colt/internal/core.(*Hierarchy).Access
     0.50s  5.00% 40.00%      0.50s  5.00%  colt/internal/cache.(*Front).DataAccess
     0.30s  3.00% 43.00%      0.30s  3.00%  crypto/internal/fips140/sha256.blockAVX2
     0.20s  2.00% 45.00%      0.20s  2.00%  net/http.(*conn).serve
     0.10s  1.00% 46.00%      0.10s  1.00%  colt/internal/mmu.(*Walker).WalkInto
`
	got, err := parsePprofTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"pprof.cache_frac": 0.25, "pprof.core_frac": 0.15, "pprof.crypto_sha256_frac": 0.03,
		"pprof.net_http_frac": 0.02, "pprof.mmu_frac": 0.01, "pprof.vm_frac": 0,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if len(got) != len(pprofPackages) {
		t.Errorf("%d shares, want one per package (%d)", len(got), len(pprofPackages))
	}
}

// The daemon's log tail keeps the last bytes written, however many
// lines came before.
func TestTailWriterKeepsTail(t *testing.T) {
	w := &tailWriter{max: 64}
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(w, "line %d\n", i)
	}
	got := w.String()
	if len(got) > 64 || !strings.HasSuffix(got, "line 998\nline 999") {
		t.Errorf("tail %q, want at most 64 bytes ending with the last lines", got)
	}
}
