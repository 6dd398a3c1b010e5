# Tier-1 verification (ROADMAP.md): build + full test suite.
.PHONY: all build test check race bench bench-suite bench-compare bench-scale bench-ratio

all: check

build:
	go build ./...

test:
	go test ./...

# race runs the detector over the packages with concurrent code paths:
# the parallel tick fan-out, the experiment run pool, the primitive they
# share, the control plane whose instruments are updated from ticking
# goroutines, the observability package (whose health timers are bumped
# from ticking goroutines while HTTP handlers snapshot them), the
# daemon that serves those handlers, and the data plane (executors,
# frameworks, speculators) that parallel experiment repetitions drive.
race:
	go test -race ./internal/cluster/... ./internal/sim/... \
		./internal/experiments/... ./internal/core/... ./internal/obs/... \
		./internal/exec/... ./internal/mapreduce/... ./internal/spark/... \
		./internal/straggler/... ./cmd/perfcloudd/...

# check is the full local gate: vet, build, tests, and the race tier.
# Benchmarks are tracked separately — run `make bench` to measure the
# monitoring/detection hot loops; they are not part of this gate.
check:
	go vet ./...
	go build ./...
	go test ./...
	$(MAKE) race

# bench measures the hot loops of the simulation and control plane —
# Monitor.Sample, Correlator identification, quiescent-cluster ticks and
# busy-cluster (active) ticks — and merges the
# parsed results (iteration count, ns/op, B/op, allocs/op) into
# BENCH_hotloop.json via cmd/benchjson. The raw `go test` output is
# echoed so regressions are visible without opening the file.
BENCH_PATTERN = MonitorSample|CorrelatorIdentify|QuiescentCluster|ActiveServerTick
bench:
	go test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem \
		./internal/core ./internal/cluster | go run ./cmd/benchjson -o BENCH_hotloop.json

# bench-compare reruns the hot-loop benchmarks and prints per-benchmark
# deltas against the committed BENCH_hotloop.json baseline without
# touching it.
bench-compare:
	go test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem \
		./internal/core ./internal/cluster | go run ./cmd/benchjson -baseline BENCH_hotloop.json

# bench-scale measures the sharded tick path at fleet scale — the same
# 8 busy servers inside 1k- and 10k-server clusters — merges the results
# into BENCH_scale.json, and gates on the scaling ratio: ticking the
# 10x-larger fleet may cost at most 2x per tick (the O(active + shards)
# contract; a flat tick would be ~10x). The ratio compares two results
# from the same run, so the gate holds on any machine.
bench-scale:
	go test -run='^$$' -bench=ShardScale -benchmem \
		./internal/cluster | go run ./cmd/benchjson -o BENCH_scale.json
	go run ./cmd/benchjson -injson BENCH_scale.json \
		-ratio 'BenchmarkShardScale/servers=10240,BenchmarkShardScale/servers=1024' -max-ratio 2

# bench-ratio gates the hot-loop fast paths within one run: ticking a
# busy server (BenchmarkActiveServerTick) may cost at most 0.67x a tick
# that first marks every server dirty, so nothing is parked, reused or
# fused (BenchmarkActiveServerTickDirty) — the fast paths must make the
# tick at least 1.5x faster. Both operands come from the same run, so
# the gate holds on any machine.
bench-ratio:
	go test -run='^$$' -bench='^BenchmarkActiveServerTick' -benchmem ./internal/cluster \
		| go run ./cmd/benchjson -ratio 'BenchmarkActiveServerTick,BenchmarkActiveServerTickDirty' -max-ratio 0.67

# bench-suite times the full Fig 3-12 experiment suite end to end —
# per-figure wall clock via perfbench -suite, plus the single-pass
# BenchmarkFigSuite measurement — and merges both into BENCH_suite.json.
bench-suite:
	go run ./cmd/perfbench -suite > /dev/null
	go test -run='^$$' -bench=FigSuite -benchtime=1x \
		./internal/experiments | go run ./cmd/benchjson -o BENCH_suite.json
