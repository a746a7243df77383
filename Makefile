GO ?= go

.PHONY: all build test race flake vet lint fmt-check bench report-diff prof-determinism par-determinism telemetry-determinism bench-smoke armbench-smoke bench-json serve-smoke cluster-smoke ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# flake reruns the whole suite three times in a shuffled order, so a test
# that depends on timing or on running after another one fails here.
flake:
	$(GO) test -count 3 -shuffle on ./...

vet:
	$(GO) vet ./...

# lint runs go vet as the baseline plus armvirt-vet, the repo's own
# eight-analyzer suite (determinism, instrumentation, and cross-package
# invariants; see DESIGN.md §9 and §14). -timing prints the per-analyzer
# cost and -budget fails the target if the whole suite ever gets slow
# enough to tempt people into skipping it.
LINT_BUDGET ?= 60s
lint: vet
	$(GO) build -o /tmp/armvirt-vet ./cmd/armvirt-vet
	/tmp/armvirt-vet -timing -budget $(LINT_BUDGET) ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem ./...

report-diff:
	$(GO) build -o /tmp/armvirt-report ./cmd/armvirt-report
	/tmp/armvirt-report -j 1 > /tmp/report-serial.txt
	/tmp/armvirt-report -j 4 > /tmp/report-parallel.txt
	diff -u /tmp/report-serial.txt /tmp/report-parallel.txt

prof-determinism:
	$(GO) build -o /tmp/armvirt-prof ./cmd/armvirt-prof
	/tmp/armvirt-prof -j 1 -folded > /tmp/prof-serial.folded
	/tmp/armvirt-prof -j 4 -folded > /tmp/prof-parallel.folded
	diff -u /tmp/prof-serial.folded /tmp/prof-parallel.folded

# par-determinism checks the parallel engine's byte-identity contract end
# to end: the full report JSON and the folded profiler stacks must not
# change one byte between GOMAXPROCS=1 (sequential windows) and
# GOMAXPROCS=4 (up to four window workers per partitioned engine). The
# engine sizes its worker pool from GOMAXPROCS, so the two runs differ in
# worker count on any host, a 1-CPU one included.
par-determinism:
	$(GO) build -o /tmp/armvirt-report ./cmd/armvirt-report
	$(GO) build -o /tmp/armvirt-prof ./cmd/armvirt-prof
	GOMAXPROCS=1 /tmp/armvirt-report -json > /tmp/report-par1.json
	GOMAXPROCS=4 /tmp/armvirt-report -json > /tmp/report-parN.json
	diff -u /tmp/report-par1.json /tmp/report-parN.json
	GOMAXPROCS=1 /tmp/armvirt-prof -folded > /tmp/prof-par1.folded
	GOMAXPROCS=4 /tmp/armvirt-prof -folded > /tmp/prof-parN.folded
	diff -u /tmp/prof-par1.folded /tmp/prof-parN.folded

# telemetry-determinism checks the in-sim sampler's byte-identity
# contract: the full PD1 fleet time series (per-PCPU utilization, steal,
# run-queue depth, exits, IRQ latency) rendered by armvirt-top must not
# change one byte between GOMAXPROCS=1 and GOMAXPROCS=4 (one and four
# window workers). CI archives the CSV.
telemetry-determinism:
	$(GO) build -o /tmp/armvirt-top ./cmd/armvirt-top
	GOMAXPROCS=1 /tmp/armvirt-top -exp PD1 -format csv > /tmp/telemetry-par1.csv
	GOMAXPROCS=4 /tmp/armvirt-top -exp PD1 -format csv > /tmp/telemetry-parN.csv
	diff -u /tmp/telemetry-par1.csv /tmp/telemetry-parN.csv
	GOMAXPROCS=1 /tmp/armvirt-top -exp PD1 -format json > /tmp/telemetry-par1.json
	GOMAXPROCS=4 /tmp/armvirt-top -exp PD1 -format json > /tmp/telemetry-parN.json
	diff -u /tmp/telemetry-par1.json /tmp/telemetry-parN.json
	@grep -q ',steal,' /tmp/telemetry-par1.csv || { echo "no steal series in PD1 telemetry"; exit 1; }
	@echo "telemetry-determinism: OK (PD1 series byte-identical at GOMAXPROCS=1 and GOMAXPROCS=4)"

# bench-smoke runs the engine hot-path microbenchmarks briefly, plus one
# iteration of the fleet on the partitioned engine at one window worker and
# on the serial engine, so the partitioned path runs under a benchmark too.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEventDispatch|BenchmarkProcSwitch|BenchmarkQueueSendRecv' -benchmem -benchtime 100ms ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkFleetSpeedup/par=1$$|BenchmarkFleetSerialEngine' -benchmem -benchtime 1x ./internal/workload

# armbench-smoke runs the end-to-end benchmark (armbench/) briefly: its own
# tests, the fleet workload untraced and traced, and the traced study
# workload. Each run must exit 0 and end with "correct":true; a panic in a
# traced probe exits 2 and fails here. A traced run must also report
# positive sim.events.study, sim.events.fleet and sim.windows.fleet:
# armbench reads them through sim.CollectStats around code that builds its
# own machines, so a zero means the run scope stopped reaching them.
armbench-smoke:
	cd armbench && $(GO) test ./...
	@set -e; \
	for run in "fleet 0" "fleet 1" "study 1"; do \
	  set -- $$run; \
	  echo "armbench-smoke: --workload $$1 --trace $$2"; \
	  bash armbench/run.sh --workload $$1 --seed 1 --seconds 2 --trace $$2 > /tmp/armbench-smoke.txt || { cat /tmp/armbench-smoke.txt; exit 1; }; \
	  tail -n 1 /tmp/armbench-smoke.txt | grep -q '"correct":true' || { cat /tmp/armbench-smoke.txt; exit 1; }; \
	  if [ "$$2" = 1 ]; then \
	    tail -n 1 /tmp/armbench-smoke.txt | jq -e '.metrics | [.["sim.events.study"].value, .["sim.events.fleet"].value, .["sim.windows.fleet"].value] | all(. > 0)' >/dev/null || \
	      { echo "armbench-smoke: traced run reports sim.events.study, sim.events.fleet or sim.windows.fleet <= 0"; tail -n 1 /tmp/armbench-smoke.txt; exit 1; }; \
	  fi; \
	done; \
	echo "armbench-smoke: OK (armbench tests; fleet untraced and traced, traced study: exit 0, correct, engine stats collected)"

# bench-json runs the perf-trajectory suite — the engine hot-path
# microbenchmarks, the experiment-level worker pool (core.RunAll at j=1
# vs j=NumCPU), the PDES speedup benchmark (the 8-PCPU fleet at
# 1, 2 and 4 window workers with the engine's window/stall/outbox health
# counters),
# and a serving-tier point: one replica primed cold then driven by
# armvirt-loadgen, whose -json report benchjson folds in under
# "loadgen" — and records it all as BENCH_9.json via armvirt-benchjson
# (host metadata + every result + derived par/j speedups). CI uploads
# the file as an artifact; speedups only show on multi-core hosts.
bench-json:
	$(GO) build -o /tmp/armvirt-benchjson ./cmd/armvirt-benchjson
	$(GO) build -o /tmp/armvirt-serve ./cmd/armvirt-serve
	$(GO) build -o /tmp/armvirt-loadgen ./cmd/armvirt-loadgen
	$(GO) test -run '^$$' -bench 'BenchmarkEventDispatch|BenchmarkProcSwitch|BenchmarkQueueSendRecv' -benchmem -benchtime 100ms ./internal/sim > /tmp/bench-engine.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRunAll' -benchtime 1x ./internal/core > /tmp/bench-runall.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFleet' -benchtime 5x ./internal/workload > /tmp/bench-fleet.txt
	@set -e; \
	/tmp/armvirt-serve -addr 127.0.0.1:18190 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:18190/readyz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -fsS "http://127.0.0.1:18190/v1/experiments/T1?format=json" >/dev/null; \
	curl -fsS "http://127.0.0.1:18190/v1/experiments/T2?format=json" >/dev/null; \
	/tmp/armvirt-loadgen -targets http://127.0.0.1:18190 \
	  -paths "/v1/experiments/T1?format=json,/v1/experiments/T2?format=json" \
	  -rps 40 -duration 3s -json > /tmp/bench-loadgen.json; \
	kill -TERM $$pid; wait $$pid
	/tmp/armvirt-benchjson -out BENCH_9.json /tmp/bench-engine.txt /tmp/bench-runall.txt /tmp/bench-fleet.txt /tmp/bench-loadgen.json
	@echo "wrote BENCH_9.json"

# serve-smoke boots the armvirt-serve daemon, waits for /healthz, then
# checks the cache-correctness contract end to end: a cold (fresh-run)
# response, a warm (cache-hit) response, and armvirt-report -json output
# must be byte-identical, and /metrics must report the hit. It then
# exercises the run ledger: /v1/runs must list the experiment run, its
# Chrome trace must be schema-valid JSON (kept at /tmp/serve-trace.json
# for CI to archive), and armvirt-runs must query the ledger file after
# the server exits. SIGTERM must drain and exit 0.
serve-smoke:
	$(GO) build -o /tmp/armvirt-serve ./cmd/armvirt-serve
	$(GO) build -o /tmp/armvirt-report ./cmd/armvirt-report
	$(GO) build -o /tmp/armvirt-runs ./cmd/armvirt-runs
	@set -e; \
	rm -f /tmp/serve-ledger.jsonl /tmp/serve-ledger.jsonl.1; \
	/tmp/armvirt-serve -addr 127.0.0.1:18080 -ledger /tmp/serve-ledger.jsonl & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -fsS http://127.0.0.1:18080/healthz >/dev/null; \
	curl -fsS http://127.0.0.1:18080/readyz >/dev/null; \
	curl -fsS "http://127.0.0.1:18080/v1/experiments/T2?format=json" > /tmp/serve-cold.json; \
	curl -fsS "http://127.0.0.1:18080/v1/experiments/T2?format=json" > /tmp/serve-warm.json; \
	diff -u /tmp/serve-cold.json /tmp/serve-warm.json; \
	/tmp/armvirt-report -only T2 -json > /tmp/serve-direct.json; \
	diff -u /tmp/serve-cold.json /tmp/serve-direct.json; \
	curl -fsS "http://127.0.0.1:18080/v1/profile/kvm-arm/hypercall?format=folded" >/dev/null; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q 'armvirt_cache_hits_total 1'; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q 'armvirt_stage_latency_us{stage="engine"'; \
	curl -fsS "http://127.0.0.1:18080/v1/experiments/PD1/timeseries?format=csv" > /tmp/serve-ts-cold.csv; \
	curl -fsS "http://127.0.0.1:18080/v1/experiments/PD1/timeseries?format=csv" > /tmp/serve-ts-warm.csv; \
	diff -u /tmp/serve-ts-cold.csv /tmp/serve-ts-warm.csv; \
	grep -q ',steal,' /tmp/serve-ts-cold.csv; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q 'armvirt_build_info{go_version='; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -Eq 'armvirt_telemetry_series_total [1-9]'; \
	run=$$(curl -fsS "http://127.0.0.1:18080/v1/runs?experiment=T2&outcome=miss&format=json" | jq -re '.[0].id'); \
	curl -fsS "http://127.0.0.1:18080/v1/runs/$$run" | jq -e '.target == "T2" and .outcome == "miss" and .engine.cycles > 0' >/dev/null; \
	curl -fsS "http://127.0.0.1:18080/v1/runs/$$run/trace" > /tmp/serve-trace.json; \
	jq -e 'type == "array" and (map(select(.ph == "X" or .ph == "M" or .ph == "C")) | length) == length and ([.[].pid] | unique | contains([1, 2]))' /tmp/serve-trace.json >/dev/null; \
	kill -TERM $$pid; wait $$pid; \
	/tmp/armvirt-runs -experiment T2 -status 200 /tmp/serve-ledger.jsonl | grep -q "$$run"; \
	echo "serve-smoke: OK (cached == fresh == armvirt-report -json; run ledger + trace valid; graceful drain)"

# cluster-smoke is the end-to-end acceptance for the cluster tier
# (DESIGN.md §13): it boots a 3-replica consistent-hash cluster on
# loopback (per-replica disk tiers) and checks, in order —
#   1. byte identity: the same experiment fetched via each replica
#      returns identical bytes, with exactly one engine run cluster-wide
#      (armvirt_engine_runs_total summed across the three /metrics);
#   2. a cold armvirt-loadgen pass runs each cold path exactly once
#      cluster-wide, and a warm pass adds zero engine runs and zero
#      errors (reports kept at /tmp/loadgen-{cold,warm}.json for CI);
#   3. rolling drain: SIGTERM one replica mid-load — its /readyz flips
#      to 503 while /healthz stays 200 and the listener drains, the
#      load generator observes the flip (unready polls) and finishes
#      with zero non-429 errors;
#   4. restart warmth: the owner replica restarted onto its disk
#      directory answers from the disk tier (X-Cache: disk), engine
#      runs stay 0, bytes identical to the original compute.
cluster-smoke:
	$(GO) build -o /tmp/armvirt-serve ./cmd/armvirt-serve
	$(GO) build -o /tmp/armvirt-loadgen ./cmd/armvirt-loadgen
	@set -e; \
	PEERS='r1=http://127.0.0.1:18181,r2=http://127.0.0.1:18182,r3=http://127.0.0.1:18183'; \
	TARGETS='http://127.0.0.1:18181,http://127.0.0.1:18182,http://127.0.0.1:18183'; \
	D=/tmp/armvirt-cluster; rm -rf $$D; mkdir -p $$D/d1 $$D/d2 $$D/d3; \
	/tmp/armvirt-serve -addr 127.0.0.1:18181 -name r1 -peers "$$PEERS" -disk $$D/d1 -drain-delay 2s & p1=$$!; \
	/tmp/armvirt-serve -addr 127.0.0.1:18182 -name r2 -peers "$$PEERS" -disk $$D/d2 -drain-delay 2s & p2=$$!; \
	/tmp/armvirt-serve -addr 127.0.0.1:18183 -name r3 -peers "$$PEERS" -disk $$D/d3 -drain-delay 2s & p3=$$!; \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true' EXIT; \
	for port in 18181 18182 18183; do \
	  for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:$$port/readyz >/dev/null 2>&1 && break; sleep 0.2; done; \
	  curl -fsS http://127.0.0.1:$$port/readyz >/dev/null; \
	done; \
	curl -fsS -D $$D/h1.txt "http://127.0.0.1:18181/v1/experiments/T2?format=json" > $$D/b1.json; \
	curl -fsS "http://127.0.0.1:18182/v1/experiments/T2?format=json" > $$D/b2.json; \
	curl -fsS "http://127.0.0.1:18183/v1/experiments/T2?format=json" > $$D/b3.json; \
	diff $$D/b1.json $$D/b2.json; diff $$D/b1.json $$D/b3.json; \
	runs=$$(for port in 18181 18182 18183; do curl -fsS http://127.0.0.1:$$port/metrics | grep '^armvirt_engine_runs_total'; done | awk '{s+=$$2} END{print s}'); \
	[ "$$runs" = 1 ] || { echo "cluster-smoke: engine runs after one experiment = $$runs, want exactly 1"; exit 1; }; \
	owner=$$(grep -i '^x-armvirt-peer:' $$D/h1.txt | awk '{print $$2}' | tr -d '\r'); \
	[ -n "$$owner" ] || owner=r1; \
	case $$owner in r2) oport=18182; odisk=d2;; r3) oport=18183; odisk=d3;; *) oport=18181; odisk=d1;; esac; \
	echo "cluster-smoke: T2 owned by $$owner (port $$oport)"; \
	LGPATHS='/v1/experiments/T1?format=json,/v1/experiments/T3?format=json,/v1/profile/kvm-arm/hypercall?format=folded'; \
	/tmp/armvirt-loadgen -targets "$$TARGETS" -paths "$$LGPATHS" -rps 30 -duration 3s -json > /tmp/loadgen-cold.json; \
	jq -e '.errors == 0 and .ok > 0' /tmp/loadgen-cold.json >/dev/null; \
	runs=$$(for port in 18181 18182 18183; do curl -fsS http://127.0.0.1:$$port/metrics | grep '^armvirt_engine_runs_total'; done | awk '{s+=$$2} END{print s}'); \
	[ "$$runs" = 4 ] || { echo "cluster-smoke: engine runs after cold loadgen = $$runs, want 4 (T2 + 3 cold paths, each exactly once)"; exit 1; }; \
	/tmp/armvirt-loadgen -targets "$$TARGETS" -paths "$$LGPATHS" -rps 30 -duration 3s -json > /tmp/loadgen-warm.json; \
	jq -e '.errors == 0 and (.outcomes.hit // 0) > 0' /tmp/loadgen-warm.json >/dev/null; \
	runs2=$$(for port in 18181 18182 18183; do curl -fsS http://127.0.0.1:$$port/metrics | grep '^armvirt_engine_runs_total'; done | awk '{s+=$$2} END{print s}'); \
	[ "$$runs2" = "$$runs" ] || { echo "cluster-smoke: warm loadgen added engine runs ($$runs -> $$runs2)"; exit 1; }; \
	/tmp/armvirt-loadgen -targets "$$TARGETS" -paths "$$LGPATHS" -rps 20 -duration 6s -json > /tmp/loadgen-drain.json & lg=$$!; \
	sleep 1; kill -TERM $$p2; sleep 0.5; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18182/readyz); \
	[ "$$code" = 503 ] || { echo "cluster-smoke: draining replica /readyz = $$code, want 503"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18182/healthz); \
	[ "$$code" = 200 ] || { echo "cluster-smoke: draining replica /healthz = $$code, want 200 (liveness-only)"; exit 1; }; \
	wait $$lg; wait $$p2; \
	jq -e '.errors == 0' /tmp/loadgen-drain.json >/dev/null || { echo "cluster-smoke: non-429 errors during rolling drain"; cat /tmp/loadgen-drain.json; exit 1; }; \
	jq -e '(.unready["http://127.0.0.1:18182"] // 0) > 0' /tmp/loadgen-drain.json >/dev/null || { echo "cluster-smoke: loadgen never observed the /readyz flip"; exit 1; }; \
	kill -TERM $$p1 $$p3; wait $$p1 $$p3; \
	/tmp/armvirt-serve -addr 127.0.0.1:$$oport -disk $$D/$$odisk & p4=$$!; \
	trap 'kill $$p4 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:$$oport/readyz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -fsS -D $$D/h4.txt "http://127.0.0.1:$$oport/v1/experiments/T2?format=json" > $$D/b4.json; \
	grep -iq '^x-cache: disk' $$D/h4.txt || { echo "cluster-smoke: restarted replica did not answer from the disk tier"; cat $$D/h4.txt; exit 1; }; \
	diff $$D/b1.json $$D/b4.json; \
	curl -fsS http://127.0.0.1:$$oport/metrics | grep -q '^armvirt_engine_runs_total 0' || { echo "cluster-smoke: restarted replica re-ran the engine"; exit 1; }; \
	kill -TERM $$p4; wait $$p4; \
	echo "cluster-smoke: OK (exactly-once cold, byte identity, rolling drain with zero errors, disk-tier warm restart)"

ci: fmt-check lint build race flake report-diff prof-determinism par-determinism telemetry-determinism bench-smoke armbench-smoke bench-json serve-smoke cluster-smoke
