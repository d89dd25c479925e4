package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// pprofPackages maps each reported package share to the function-name
// prefixes of its code. crypto/sha256's block function lives in the
// FIPS module from Go 1.24 on.
var pprofPackages = []struct {
	metric   string
	prefixes []string
}{
	{"pprof.core_frac", []string{"colt/internal/core."}},
	{"pprof.cache_frac", []string{"colt/internal/cache."}},
	{"pprof.mmu_frac", []string{"colt/internal/mmu."}},
	{"pprof.workload_frac", []string{"colt/internal/workload."}},
	{"pprof.mm_frac", []string{"colt/internal/mm."}},
	{"pprof.vm_frac", []string{"colt/internal/vm."}},
	{"pprof.server_frac", []string{"colt/internal/server."}},
	{"pprof.net_http_frac", []string{"net/http."}},
	{"pprof.crypto_sha256_frac", []string{"crypto/sha256.", "crypto/internal/fips140/sha256."}},
}

// fetchProfile saves a CPU profile of the daemon over its debug
// listener, covering the next seconds.
func fetchProfile(debugURL string, seconds int, path string) error {
	hc := &http.Client{Timeout: time.Duration(seconds)*time.Second + requestTimeout}
	resp, err := hc.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", debugURL, seconds))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile: status %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// packageShares runs `go tool pprof -top` on a saved profile and sums
// each package's flat (self) share of the samples.
func packageShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	return parsePprofTop(string(out))
}

// parsePprofTop sums the flat% column of `pprof -top` output by
// package.
func parsePprofTop(top string) (map[string]float64, error) {
	shares := make(map[string]float64, len(pprofPackages))
	for _, p := range pprofPackages {
		shares[p.metric] = 0
	}
	header := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %v", sc.Text(), err)
		}
		name := strings.Join(f[5:], " ")
		for _, p := range pprofPackages {
			for _, pre := range p.prefixes {
				if strings.HasPrefix(name, pre) {
					shares[p.metric] += pct / 100
				}
			}
		}
	}
	if !header {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return shares, nil
}
