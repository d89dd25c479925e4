# Repository checks. `make check` is the single pre-merge gate:
# formatting, module hygiene, vet, build, the full test suite, the
# race-detector pass over the parallel engine and the serving daemon,
# the golden-run regression diff, and the benchmark module's own vet
# and tests.

GO ?= go

.PHONY: check fmt tidy vet build test race golden perfbench golden-update bench-parallel bench-hotpath bench-serve chaos chaos-serve fuzz cover serve-smoke cluster-smoke

check: fmt tidy vet build test race golden perfbench

# gofmt as a gate: fail listing the offending files, not rewriting
# them — CI must never mutate the tree.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmt: files need gofmt:"; echo "$$out"; exit 1; fi

# go.mod/go.sum must be tidy as committed.
tidy:
	$(GO) mod tidy -diff

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scheduler and the parallel-determinism guards under the race
# detector: concurrency bugs in the experiment engine show up here.
# The telemetry determinism tests ride along — TraceSet/Reporter are
# fed concurrently from all workers.
race:
	$(GO) test -race ./internal/sched ./internal/experiments -run 'Parallel|GoldenHistograms|TraceEvents'
	$(GO) test -race -count=1 ./internal/server ./internal/server/faultfs ./internal/obs

# Golden-run regression diff: re-runs the golden experiment subset and
# byte-compares its metrics JSON against internal/experiments/testdata/
# goldens (see EXPERIMENTS.md).
golden:
	$(GO) test ./internal/experiments -run TestGoldens

# perfbench/ is its own Go module, so the root `go vet ./...` and
# `go test ./...` never reach it. Vet and test it in place; this writes
# no file under perfbench/.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the goldens after an intended simulator change; review the
# resulting JSON diff before committing it.
golden-update:
	$(GO) test ./internal/experiments -run TestGoldens -update

# Wall-clock scaling of the parallel experiment engine (identical
# output at every width; see EXPERIMENTS.md for recorded numbers).
bench-parallel:
	$(GO) test -bench ParallelFig18 -cpu 1,4,8 -benchtime 3x -run '^$$' .

# Hot-path trajectory: run the refs/sec benchmark and rewrite
# BENCH_hotpath.json at the repo root (see EXPERIMENTS.md for the
# schema and the cross-PR measurement methodology).
bench-hotpath:
	./scripts/bench_hotpath.sh

# Serving-path trajectory: drive a self-hosted server with coltload's
# zipf-skewed closed loop and rewrite BENCH_serve.json at the repo
# root (see EXPERIMENTS.md for the schema and the cross-PR A/B
# methodology). CI runs a 2s smoke (`make bench-serve DURATION=2s`).
DURATION ?= 8s
bench-serve:
	./scripts/bench_serve.sh $(DURATION)

# Chaos soak: fault injection at every site with the invariant auditors
# armed — injected failures must surface as structured records, the
# surviving jobs must render, and the degraded report must be
# byte-identical at every scheduler width (see DESIGN.md).
chaos:
	$(GO) test ./internal/experiments -run TestChaos -count=1 -v

# Serving-path chaos: SIGKILL coltd mid-load and assert the journal
# replays every accepted job with byte-identical reports on restart,
# then boot under a total-fsync-failure storm and assert the daemon
# degrades to memory-only serving instead of dying (see DESIGN.md §12).
chaos-serve:
	./scripts/chaos_serve.sh

# Fuzz every Fuzz* target in the module for FUZZTIME each, e.g.
# `make fuzz FUZZTIME=30s`. Targets are found with `go test -list`, so a
# new one needs no edit here (CI runs the checked-in corpora only, via
# `make test`).
FUZZTIME ?= 30s
fuzz:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	printf '%s\n' "$$list" | \
		awk '/^Fuzz/ { f[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "fuzz: $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME); \
	done

# Serve-path smoke: boot coltd on an ephemeral port, submit a quick
# table1 job, assert the identical resubmission is a byte-identical
# cache hit with no extra simulation, and drain cleanly on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# Cluster smoke: boot a 3-node fleet with static -peers, assert ring
# convergence on readyz, one fleet-wide simulation for a spec
# submitted through two nodes (ownership proxying), byte-identical
# reports through every node (peer cache fill), then SIGKILL a node
# and assert the survivors shrink the ring and re-serve every hash
# from cache.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Statement-coverage gate for the observability stack: each package
# listed in .coverage-floor must meet its checked-in minimum.
cover:
	@set -e; \
	while read -r pkg floor; do \
		case "$$pkg" in ''|\#*) continue;; esac; \
		pct=$$($(GO) test -count=1 -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		echo "$$pkg: $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p + 0 >= f + 0) }' || \
			{ echo "cover: $$pkg coverage $$pct% fell below the $$floor% floor"; exit 1; }; \
	done < .coverage-floor
