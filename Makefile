GO ?= go

.PHONY: build test race lint fmt vuln fuzz-smoke bench-smoke soak-smoke soak-full experiments-golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repository's own analyzer suite (DESIGN.md §10). A
# clean run is a tier-1 requirement, enforced by CI and by
# TestRepoLintClean in internal/analyzers.
lint:
	$(GO) run ./cmd/tagbreathe-lint ./...

fmt:
	gofmt -l -w .

# vuln needs network access to fetch the vulnerability database; CI
# runs it, air-gapped dev machines can skip it.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# fuzz-smoke and bench-smoke run what CI's fuzz-smoke job and its
# "Scaling benchmarks (smoke)" step run.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeMessage -fuzztime=10s -run '^$$' ./internal/llrp/
	$(GO) test -fuzz=FuzzEngineFeed -fuzztime=10s -run '^$$' ./internal/core/
	$(GO) test -fuzz=FuzzBinFuser -fuzztime=10s -run '^$$' ./internal/core/
	$(GO) test -fuzz=FuzzSynthStream -fuzztime=10s -run '^$$' ./internal/sim/

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEstimateUsers|BenchmarkMonitorUsers' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeTagReports' -benchtime=1x ./internal/llrp
	$(GO) test -run '^$$' -bench 'BenchmarkStreamBandPassBlock' -benchtime=1x ./internal/sigproc

# soak-smoke is the compressed graceful-degradation soak (~2 min wall):
# 25 minutes of multi-user, multi-reader stream time at 30x through
# jittered chaos schedules, under -race. Asserts the full cycle — tick
# stretch engages, primary-vantage data survives, estimates stay in
# band, and everything returns to baseline in the calm tail. CI runs
# this on every push (DESIGN.md §13).
soak-smoke:
	$(GO) test -race -count=1 -run TestSoakCompressed -v ./internal/soak/

# soak-full replays the same schedule at real time (~1 h wall) —
# manual or nightly, not part of per-push CI. The nightly-soak workflow
# runs it with TAGBREATHE_SOAK_TREND=BENCH_soak_trend.json to append
# the run's degradation summary to the checked-in trend history.
soak-full:
	TAGBREATHE_SOAK=realtime $(GO) test -race -count=1 -timeout 2h -run TestSoakCompressed -v ./internal/soak/

# experiments-golden reruns every experiment that runs on stream time
# (all but the wall-clock chaos and soak studies) and diffs the output
# against the checked-in experiments_output.txt: the paper's
# evaluation as this repository reproduces it, byte for byte (~45 s on
# 2 vCPUs). A change that moves a figure regenerates the file and
# names the moved rows in CHANGES.md. CI runs this target.
GOLDEN_EXPERIMENTS = fig2-8,table1,fig12,fig13,fig14,fig15,fig16,fig17,radar,ablation,filter,window,channels,select,sessions,heart,motion,tagmodels,los,txpower,tags

experiments-golden:
	$(GO) run ./cmd/experiments -trials 12 -only $(GOLDEN_EXPERIMENTS) | diff -u experiments_output.txt -
