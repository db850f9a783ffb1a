GO ?= go

.PHONY: check fmt vet build test race alloc-budget benchmark-test bench bench-smoke bench-compare bench-pairs bench-codec loc

## check: the tier-1 gate — gofmt, vet, build, race-enabled tests, the
## allocation budgets without the race detector, and the repository
## benchmark's own smoke test.
check: fmt vet build race alloc-budget benchmark-test

## fmt: fails if gofmt would change any file.
fmt:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## alloc-budget: the tests that pin what a call allocates — the card's
## staging, a cached ReadAt, Stat, Open and overwrite, a cold 64 KB
## ReadAt (a lone read: four requests), a 64 KB ReadAt right after a lock
## handoff (a bound: the speculative fill and its lone ReadV, the lock
## traffic around it), a streaming 64 KB WriteAt with its write-behind
## flight, a create, remove, mkdir, rmdir and rename, a path split, a log
## append with its flush (internal/wal), a cache insert (one object), the
## waits, Petal's routing and fan-out, a replicated 64 KB WriteV (a
## write-behind flight: whole) and a ReadV round trip (client and
## servers), halved and lone, a 16 KB WriteV someone waits for, in two
## parts (partedWriteVAllocs), an RPC's time-out, a network Send of
## a boxed payload (nothing), a sticky lock's Lock/TryLock and Unlock, a
## lease check, a flight-recorder record (an event or a finished span:
## nothing, into a slot of <= 128 B), a span's Start/Child/Done (nothing:
## spans are pooled) — once
## more without the race detector: under it
## sync.Pool drops a share of what it is given and the counts carry
## slack, here they are exact. A package that prints "[no tests to run]"
## pins nothing; fs, wal, petal, rpc, sim, cache, lockservice and obs
## must not.
alloc-budget:
	$(GO) test -count=1 -run 'Allocs|AllocationFree|AllocateNothing' ./internal/...

## benchmark-test: benchmark/ is a module of its own, so ./... above
## never reaches its tests.
benchmark-test:
	cd benchmark && $(GO) test ./...

bench:
	$(GO) run ./cmd/frangibench -quick

## bench-smoke: the gate list — every experiment below fails on its own
## in-experiment assertions, so one run of this target is the gate:
##   read-scaling: on a hot-primary chunk set the backup serves 45-55% of
##     the bytes of balanced reads, balanced reads are >= 1.5x
##     primary-only (ten -quick runs held 1.59-1.92; what is
##     short of 2x is ring placement, ROADMAP item 3), and ReadDirPlus
##     needs <= 50% of the stat scan's read RPCs;
##   TestCodecBudget (CODEC_BUDGET=1): the wire codec beats the gob
##     baseline by >= 5x allocs/op and >= 2x ns/op on 1 MB WriteV/ReadV,
##     with encode at 0 allocs/op;
##   forensics-smoke: a lock holder killed mid-write leaves a merged
##     flight-recorder timeline with expiry -> recovery -> replay in
##     causal order;
##   contention-profile: the critical path names >= 90% of the shared
##     write's latency and the shared file's inode lock tops the hot-lock
##     table;
##   lock-scaling: contended acquire p99 improves >= 1.8x (ten -quick
##     runs held 2.05-2.31) and throughput >= 1.5x from 1 to 4
##     lock-server shards, with the stale-map nack/refetch path and a
##     mid-run shard handoff exercised; its curves go to
##     lock-scaling-trajectory.json;
##   obs-overhead: the flight recorder and the per-principal account
##     table each add <= 1% serial Sync latency (the recorder row turns
##     the rings off, so it ablates span records and events together);
##   noisy-neighbor-obs: >= 95% of a principal-tagged streaming writer's
##     bytes and lock-wait are attributed, the writer ranks first by
##     bytes, and the watcher's verdict lands in the merged timeline;
##   scale-sweep: read and write throughput stay >= 0.7x linear from 8 to
##     32 servers (8/16/32 machines in -quick) and busy clerks send zero
##     standalone renew RPCs; on failure it dumps
##     FORENSICS_scale-sweep.json, and its per-N curves go to
##     BENCH_scale_<utc-timestamp>.json.
## The Sync trace's layer coverage is TestSyncTraceCoversLayers, in
## `make check`. The final steps persist this build's point on the perf
## trajectory as BENCH_<utc-timestamp>.json: the repository benchmark
## (BENCHMARK.json, benchmark/README.md) on all four workloads at seed 1
## — the eight end-to-end metrics of each, with the host's description —
## then the same run traced, with the per-layer metrics and critical-path
## self times, as BENCH_layers_<utc-timestamp>.json; and bench-compare
## holds the untraced point against the one before it.
bench-smoke:
	$(GO) run ./cmd/frangibench -quick -exp read-scaling
	CODEC_BUDGET=1 $(GO) test -run TestCodecBudget -count=1 ./internal/rpc/
	$(GO) run ./cmd/frangibench -quick -exp forensics-smoke
	$(GO) run ./cmd/frangibench -quick -exp contention-profile
	$(GO) run ./cmd/frangibench -quick -exp lock-scaling -out lock-scaling-trajectory.json
	$(GO) run ./cmd/frangibench -quick -exp obs-overhead
	$(GO) run ./cmd/frangibench -quick -exp noisy-neighbor-obs
	$(GO) run ./cmd/frangibench -quick -exp scale-sweep -out BENCH_scale_$$(date -u +%Y%m%dT%H%M%SZ).json
	bash benchmark/run.sh --workload all --seed 1 --out BENCH_$$(date -u +%Y%m%dT%H%M%SZ).json
	bash benchmark/run.sh --workload all --seed 1 --trace 1 --out BENCH_layers_$$(date -u +%Y%m%dT%H%M%SZ).json
	$(MAKE) bench-compare

## bench-compare: the newest two points of the perf trajectory — the
## BENCH_<utc>.json files in this checkout: the committed ones and, at
## the end of bench-smoke, the one just written. The glob BENCH_[0-9]*
## leaves out BENCH_scale_* and the traced BENCH_layers_*, whose metrics
## an untraced point does not have — through
## `bash benchmark/run.sh -compare OLD NEW`. Fails if a metric of the
## newer point is worse than the older by more than its BENCHMARK.json
## bound ("regressed"), or a run failed its oracle.
bench-compare:
	@set -- $$(ls BENCH_[0-9]*.json | sort | tail -n 2); \
	[ $$# -eq 2 ] || { echo "bench-compare: need two BENCH_<utc>.json points, found $$#"; exit 2; }; \
	echo "bench-compare: $$1 -> $$2"; \
	bash benchmark/run.sh -compare $$1 $$2

## bench-pairs: what a performance change is judged on. N alternating
## pairs of benchmark/run.sh on workload W, at BASE (checked out into a
## git worktree under .bench_build/; or, with BASE_TREE=<dir>, the
## checkout of it that already is at <dir>, used as is and not removed —
## for where `git worktree` is not allowed) and at the working tree, pair i at
## seed SEED+i; prints per metric each side's median [q1, q3], how much
## worse the change's median is against BENCHMARK.json's bound, the
## pairs it won and failed/attempted. TRACE=1: traced runs, the
## per-layer metrics. About a minute a pair; run nothing else meanwhile.
BASE ?= HEAD
N ?= 10
SEED ?= 1
TRACE ?= 0
BASE_TREE ?=
bench-pairs:
	BASE_TREE=$(BASE_TREE) bash scripts/bench-pairs.sh $(BASE) $(W) $(N) $(SEED) $(TRACE)

## loc: non-test Go code lines (no blanks, no comments) per package —
## and per file for the packages named in DIRS — the count ROADMAP item
## 7 asks CHANGES.md to record. BASE=<rev> adds that revision's counts
## (read with git archive, no worktree) and the delta.
DIRS ?=
loc:
	BASE=$(if $(filter command line environment,$(origin BASE)),$(BASE)) bash scripts/loc.sh $(DIRS)

## bench-codec: raw codec-vs-gob microbenchmarks with allocation counts.
bench-codec:
	$(GO) test -bench=Codec -benchmem -run '^$$' ./internal/rpc/...
	$(GO) test -bench=Gob -benchmem -run '^$$' ./internal/rpc/...
