# Development entry points. `make check` runs the same pipeline CI does.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: build vet airvet lint lint-baseline test race fuzz bench chaos netcast loadgen optscale replan hybrid check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repo must stay clean against the committed (empty) baseline; see
# docs/airvet.md for the ratchet workflow.
airvet lint:
	$(GO) run ./cmd/airvet -baseline lint_baseline.json ./...

# Rewrite the baseline from current findings (blessing new debt — use
# sparingly, the goal is an empty file).
lint-baseline:
	$(GO) run ./cmd/airvet -baseline lint_baseline.json -update ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/netcast/... ./internal/online/... ./internal/opt/... ./internal/ptas/... ./internal/replan/... ./internal/sim/... ./internal/chaos/... ./internal/experiments/... ./cmd/...

fuzz:
	$(GO) test -fuzz='FuzzRearrange$$'         -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz='FuzzRearrangeMonotone$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz='FuzzProgramJSON$$'       -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz='FuzzGroupSetJSON$$'      -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz='FuzzParseFrame$$'        -fuzztime=$(FUZZTIME) ./internal/netcast/
	$(GO) test -fuzz='FuzzPAMADPlacement$$'    -fuzztime=$(FUZZTIME) ./internal/pamad/
	$(GO) test -fuzz='FuzzSUSCEquivalence$$'   -fuzztime=$(FUZZTIME) ./internal/susc/
	$(GO) test -fuzz='FuzzSketchQuantile$$'    -fuzztime=$(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz='FuzzChaosDeterminism$$'  -fuzztime=$(FUZZTIME) ./internal/chaos/
	$(GO) test -fuzz='FuzzPTASEquivalence$$'   -fuzztime=$(FUZZTIME) ./internal/opt/
	$(GO) test -fuzz='FuzzReplanEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/replan/
	$(GO) test -fuzz='FuzzOndemandQueue$$'     -fuzztime=$(FUZZTIME) ./internal/ondemand/
	$(GO) test -fuzz='FuzzOnlineEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/online/

# Smoke the hot-path benchmarks and the benchmark-trajectory harness (see
# docs/perf.md). `make bench BASELINE=BENCH_sweep.json` also compares; the
# construction-engine report is always gated against the committed
# BENCH_build.json baseline.
bench:
	$(GO) test -run '^$$' -bench 'Analyze|AppearanceIndex|Measure|Figure5|SUSCBuild|PAMADBuild|OPTSearch' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'Fanout' -benchtime=1x -benchmem ./internal/netcast/
	$(GO) test -run '^$$' -bench 'ExactDelay|SuffixDelayTotal' -benchtime=1x -benchmem ./internal/delaymodel/
	$(GO) test -run '^$$' -bench 'ReplanSuffixEdit' -benchtime=1x -benchmem ./internal/replan/
	$(GO) run ./cmd/airbench -bench -stride 8 -skipopt -requests 300 -dist sskew \
		-buildout BENCH_build_new.json -buildbaseline BENCH_build.json \
		$(if $(BASELINE),-baseline $(BASELINE))

# Chaos determinism smoke: regenerate the chaos trajectory and gate it
# against the committed BENCH_chaos.json (zero-fault identity + pinned
# faulted fingerprint). See docs/testing.md.
chaos:
	$(GO) run ./cmd/airbench -chaos -chaosout BENCH_chaos_new.json -chaosbaseline BENCH_chaos.json

# Fan-out engine smoke: ring publish cost, loadgen bit-identity, and the
# sharded-vs-serial UDP slot path, gated against BENCH_netcast.json.
netcast:
	$(GO) run ./cmd/airbench -netcast -netcastout BENCH_netcast_new.json -netcastbaseline BENCH_netcast.json

# Optimizer-scaling smoke: run the (1+eps) PTAS ladder — live family/ratio
# gates plus the committed BENCH_optscale.json checksum baseline. See
# docs/perf.md.
optscale:
	$(GO) run ./cmd/airbench -optscale -optscaleout BENCH_optscale_new.json -optscalebaseline BENCH_optscale.json

# Incremental replan smoke: single-page deltas at 10^5 pages must beat a
# from-scratch PAMAD rebuild by >=10x with a bit-identical grid, gated
# against the committed BENCH_replan.json. See docs/perf.md.
replan:
	$(GO) run ./cmd/airbench -replan -replanout BENCH_replan_new.json -replanbaseline BENCH_replan.json

# Online hybrid tier smoke: serial/parallel bit-identity across worker
# counts, conservation oracles on a recorded run, and the intensity x split
# matrix fingerprint, gated against the committed BENCH_hybrid.json.
hybrid:
	$(GO) run ./cmd/airbench -hybrid -hybridout BENCH_hybrid_new.json -hybridbaseline BENCH_hybrid.json

# Quick scenario sweep through the broadcast transport; fault-free cells
# self-verify against sim.MeasureStream. Artifacts land under results/.
loadgen:
	$(GO) run ./cmd/loadgen -clients 100000 -dists uniform,sskew -loss 0,0.1 -churn 0,0.05

check:
	FUZZTIME=$(FUZZTIME) scripts/check.sh
