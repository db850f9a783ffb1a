GO ?= go

.PHONY: check fmt vet build test race alloc-budget benchmark-test bench bench-smoke experiments bench-compare bench-pairs bench-codec loc

## check: the tier-1 gate — gofmt, vet, build, race-enabled tests, the
## allocation budgets without the race detector, and the repository
## benchmark's own smoke test.
check: fmt vet build race alloc-budget benchmark-test

## fmt: fails if gofmt would change any file.
fmt:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

## vet: benchmark/ is a module of its own, so ./... stops short of it;
## it is vetted in its own directory (not built: its main package would
## overwrite the tracked benchmark/benchmark binary).
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## alloc-budget: the tests that pin what a call allocates — the card's
## staging (a warm card's 64 KB write: nothing, its sectors staged in
## slots from the card's free list), a disk's first 64 KB write to
## sectors it never held (one 64 KB slab; a buffer a sector, 128, before
## TestDiskFirstTouchAllocs), a cached ReadAt, Stat, Open and
## overwrite, a cold 64 KB ReadAt (a lone read: its four replies and
## nothing else; 5 while every claim was new, 21 before its pages took
## the entries their evictions drop), a 64 KB ReadAt right after a lock
## handoff (a bound: the lock messages and the speculative fill's lone
## ReadV replies, 9; 12 while claims and transactions were new, 29 before
## its pages and sector took the entries the revoke dropped), a revoke
## that takes a cached directory's lock to None (a bound: its four lock
## messages; the hint it keeps is a slot of a fixed table), a cold
## Stat (a bound: the inode sector's read reply, 1), a streaming 64 KB
## WriteAt with its write-behind flight (nothing: its transaction and
## claim come from free lists, the flight runs on a parked worker; 3
## before, 19 before its pages were reused), a gate's claim (nothing on
## a warm gate), a create, remove, mkdir, rmdir and rename (nothing: the
## transaction is reused; the rename that spills, 1), a path split, a
## log append with its flush (internal/wal),
## a cache insert (nothing once its victim is unpinned, one object while
## a holder pins it), the
## waits, Petal's routing (a round of the planner in plan.go:
## nothing, TestTargetsAllocationFree) and a fan-out on parked workers
## (nothing), a replicated 64 KB WriteV (a
## write-behind flight: two parts, nothing) and a ReadV round trip (client
## and servers: one object a reply), halved and lone, a 16 KB WriteV someone waits for, in two
## parts (partedWriteVAllocs: nothing), the wire codec's encoding of a
## 16 x 64 KB WriteVReq and ReadVResp (nothing) and their decoding (4 and 3,
## TestCodecEncodeAllocs), an RPC's time-out, a network Send of
## a boxed payload (nothing), a sticky lock's Lock/TryLock and Unlock, a
## lock handoff on a bare world (a bound: one object a message, four), a
## lease check, a flight-recorder record (an event or a finished span:
## nothing, into a slot of <= 128 B), a span's Start/Child/Done (nothing:
## spans come from the tracer's free list), a hand to a parked worker and
## a warm free list's Take and Put (nothing, internal/reuse) — once
## more without the race detector: under it bufpool's
## sync.Pool drops a share of what it is given, so a count whose path
## takes a bufpool buffer is pinned only without it; here they are exact. A package that prints "[no tests to run]"
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
##   table1, table2: on the rows that touch new metadata Frangipani's raw
##     time stays within 3x AdvFS's for Create Directories and Table 2's
##     create/remove, 2x for Copy Files and 1.3x for the MAB total
##     (ROADMAP item 6: a create that touches a free inode first takes
##     its lock with its free neighbours' in one batch and reads their
##     sectors in one fetch; before that the rows read 9.5x, 3.8x,
##     1.76x and 5.2x). Both run at full size, about a second each: at
##     -quick sizing the rows are a few milliseconds and one host stall
##     decides a gate (one of eight `go run` runs failed Copy Files at
##     2.48x; none of twenty at full size);
##   fig9 (-quick, about 30 s): Figure 9's readers read >= 1.15x as much
##     beside a writer of an 8 KB shared region as beside one of 64 KB,
##     at every reader count (at -quick the parent of this gate read
##     1.41x and 1.31x at one and two readers, its change 1.51x and
##     1.40x);
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
	$(GO) run ./cmd/frangibench -exp table1
	$(GO) run ./cmd/frangibench -exp table2
	$(GO) run ./cmd/frangibench -quick -exp fig9
	$(GO) run ./cmd/frangibench -quick -exp scale-sweep -out BENCH_scale_$$(date -u +%Y%m%dT%H%M%SZ).json
	bash benchmark/run.sh --workload all --seed 1 --out BENCH_$$(date -u +%Y%m%dT%H%M%SZ).json
	bash benchmark/run.sh --workload all --seed 1 --trace 1 --out BENCH_layers_$$(date -u +%Y%m%dT%H%M%SZ).json
	$(MAKE) bench-compare

## experiments: every entry of bench.Experiments once, at the -quick
## sizing of the root BenchmarkExperiments (4 machines, 5 Petal
## servers), each table logged. bench-smoke runs ten of them, the
## ones with gates; this runs all twenty, and fails if any of them fails
## its own assertions or no longer runs. Not part of check.
experiments:
	$(GO) test -run '^$$' -bench Experiments -benchtime 1x .

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
