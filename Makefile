# Build/test/benchmark wiring for the vizpower reproduction.
#
#   make check   - gofmt gate + vet + build + full test suite + short race pass
#   make fmt     - fail when gofmt -l . lists any file
#   make race    - the short -race run on the runtime, mesh layer, rank
#                  fabric, hydro proxy (its sweeps are pool.For bodies
#                  writing shared arrays), and two kernels (the packages
#                  with real cross-goroutine traffic), plus the harness cell path
#                  (failure injection, retries, partial sweeps over all
#                  three cell kinds), its declaration-only core from four
#                  goroutines, the governor sweep (one recording that
#                  every budget and policy governs), Figure 1 (eight
#                  panels rendering at once on one pool from one shared,
#                  read-only grid), the data-set pin (child processes
#                  building data sets at GOMAXPROCS 1, 2 and 4, under
#                  -race too), and the golden "same numbers" tests
#                  (harness TestGoldenArtifacts; power's TestGoldenEngine
#                  runs with ./internal/power in RACE_PKGS), and the one
#                  PNG encoder with its shared buffer free list, which
#                  the daemon's handlers and cinema's async encoders use
#                  at once (./internal/render), and the tracer and metrics
#                  plane, whose tracks are created and recorded on from
#                  many goroutines at once (./internal/obs)
#   make fuzz    - every Fuzz* target for 10 s each (plain `go test` only
#                  replays the committed corpora under testdata/fuzz)
#   make bench   - the repo's benchmark: bench/run.sh, every workload
#                  untraced then traced into bench/out/ (the one ledger;
#                  bench/README.md maps the old per-PR headlines, now
#                  BENCH_HISTORY.json, onto its rows)
#   make bench-go BENCH=<regexp> [PKG=<package>] - pass-through to
#                  `go test -bench`: the few root arms no ledger row can
#                  hold, e.g. make bench-go BENCH=Ablation;
#                  make bench-go BENCH=CellCold is the cold, one-shot cost
#                  of clip, isovolume, contour and threshold at 64^3 and
#                  128^3 and advection at 64^3 (fresh pool per iteration,
#                  -benchmem, live-MB left behind; clip-128 ~0.11 GB/run);
#                  make bench-go BENCH=HydroDataset is what a data set
#                  costs before any kernel: BuildDataset at 64^3 to
#                  SimTime 0.05 and 0.12 (hydro run + Grid export),
#                  with the hydro's step count as `steps`, and the
#                  128^3 resample of a cached 64^3 run;
#                  a package's own, e.g. make bench-go BENCH=Obs PKG=./internal/obs
#   make govern  - run the vizpower govern subcommand at demonstration
#                  scale (closed-loop vs static vs uniform sweep table)
#   make profile - run the vizpower profile subcommand at demonstration
#                  scale into out/profile (trace.json + summary.txt),
#                  validating the exported JSON; -ranks 1,2,4,8 adds the
#                  distributed advection cell, so the trace carries a
#                  track per rank next to the pipeline and worker tracks
#   make serve   - run the rendering daemon at demonstration scale on
#                  localhost:8080 with a 130 W budget
#   make pair REF=<rev> W=<workload> N=<pairs> - N alternated paired runs
#                  of one bench/run.sh workload (15 s each, seed i for pair
#                  i) at the commit REF and on the working tree: per
#                  end-to-end metric both medians, REF's interquartile
#                  range and the working tree's wins (scripts/pair.sh)
#   make loc     - the three line counts ROADMAP.md quotes: non-test Go
#                  under internal/ + cmd/, non-test Go in the whole repo,
#                  and test Go
#
# Every test target carries -timeout 120s: the fabric tests deliberately
# create would-be deadlocks and rely on cancellation to unblock, so a
# hang must fail fast instead of stalling CI.

GO ?= go

# Packages whose tests exercise multi-worker pools and shared buffers.
RACE_PKGS = ./internal/par ./internal/mesh ./internal/dpp ./internal/sim/... ./internal/viz/... ./internal/cinema ./internal/dist ./internal/serve ./internal/power ./internal/obs ./internal/render

.PHONY: check fmt vet build test race fuzz bench bench-go govern profile serve pair loc

check: fmt vet build test race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test: vet
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race -count=1 -timeout 120s $(RACE_PKGS)
	$(GO) test -race -count=1 -timeout 120s ./internal/harness -run 'Failure|Retry|Retries|Partial|Advect|Govern|Golden|DeclarationCore|Fig1|DatasetHashes'

# One 10 s run per Fuzz* target (go test -fuzz takes one target and one
# package at a time). A failing input lands in that package's
# testdata/fuzz/<target>/ and fails plain `go test` from then on.
fuzz:
	@set -e; for d in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for f in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$d/*_test.go | cut -c6-); do \
			echo "== $$d $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s $$d; \
		done; \
	done

bench:
	bash bench/run.sh

BENCH ?= .
PKG ?= .
bench-go:
	$(GO) test -timeout 600s -run xxx -bench '$(BENCH)' -benchmem $(PKG)

# Run the closed-loop governor sweep at demonstration scale.
govern:
	$(GO) run ./cmd/vizpower govern -quick -cycles 8

# Run the profile subcommand at demonstration scale and confirm the
# exported trace parses as Chrome trace-event JSON (the CLI re-validates
# the written bytes and fails the command otherwise).
profile:
	$(GO) run ./cmd/vizpower profile -quick -cap 80 -cycles 3 -ranks 1,2,4,8 -out out/profile

# Run the daemon at demonstration scale (ctrl-C drains in-flight
# requests and finalizes the cinema manifests before exiting).
serve:
	$(GO) run ./cmd/vizpower serve -quick -addr localhost:8080 -budget 130 -out out

pair:
	bash scripts/pair.sh '$(REF)' '$(W)' '$(N)'

# Go sources under the given roots (build trees excluded), then the
# three counts.
GOFILES = find $(1) -path ./.bench_build -prune -o -name '*.go' $(2) -print
loc:
	@printf '%-32s %6d\n' 'non-test Go, internal/ + cmd/' $$($(call GOFILES,internal cmd,! -name '*_test.go') | xargs cat | wc -l)
	@printf '%-32s %6d\n' 'non-test Go, whole repo' $$($(call GOFILES,.,! -name '*_test.go') | xargs cat | wc -l)
	@printf '%-32s %6d\n' 'test Go' $$($(call GOFILES,.,-name '*_test.go') | xargs cat | wc -l)
