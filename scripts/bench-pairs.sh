#!/usr/bin/env bash
# Alternating pairs of the repository benchmark at a base commit and at
# this checkout: the table a performance change is judged on.
#
#   scripts/bench-pairs.sh BASE WORKLOAD PAIRS [FIRST_SEED] [TRACE]
#   make bench-pairs BASE=<ref> W=<workload> N=<pairs> [SEED=<first>] [TRACE=1]
#
# BASE is checked out into a git worktree under .bench_build/ (removed
# again on exit) — or, with BASE_TREE=<dir> in the environment, is the
# checkout already at <dir> (a `git clone` or `git archive` of the parent,
# where `git worktree` is not allowed), which is used as it is and left
# alone; BASE then only labels the run. The other side is the working
# tree as it stands. Pair
# i runs benchmark/run.sh from both checkouts at seed FIRST_SEED+i, the
# base first in even pairs and the change first in odd ones, never two
# runs at once. Every run's last line is kept, tagged with its side, in
# .bench_build/pairs/<workload>-<utc>.jsonl. Printed per metric: each
# side's median [q1, q3], by how much the change's median is worse
# (negative: better) against the bound BENCHMARK.json gives, in how many
# pairs the change won, and failed/attempted of each side. TRACE=1 makes
# traced runs and prints the per-layer metrics, which have no bounds.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base=${1:?usage: bench-pairs.sh BASE WORKLOAD PAIRS [FIRST_SEED] [TRACE]}
workload=${2:?workload: one of the names in BENCHMARK.json}
pairs=${3:?number of pairs}
seed=${4:-1}
trace=${5:-0}
command -v jq >/dev/null || { echo "bench-pairs: jq not found" >&2; exit 2; }

spec="$root/BENCHMARK.json"
seconds=$(jq .run_seconds "$spec")
mkdir -p "$root/.bench_build/pairs"
log="$root/.bench_build/pairs/$workload-$(date -u +%Y%m%dT%H%M%SZ).jsonl"

if [[ -n ${BASE_TREE:-} ]]; then
	tree=$(cd "$BASE_TREE" && pwd)
	[[ -f $tree/benchmark/run.sh ]] || { echo "bench-pairs: BASE_TREE=$BASE_TREE has no benchmark/run.sh" >&2; exit 2; }
else
	tree="$root/.bench_build/base"
	git -C "$root" worktree remove --force "$tree" 2>/dev/null || true # left by an interrupted run
	git -C "$root" worktree prune
	git -C "$root" worktree add --quiet --detach "$tree" "$base"
	trap 'git -C "$root" worktree remove --force "$tree"' EXIT
fi
echo "base $(git -C "$tree" rev-parse --short HEAD 2>/dev/null || echo "$base") at $tree vs $(git -C "$root" rev-parse --short HEAD) + working tree: $workload, $pairs pairs from seed $seed, ${seconds}s windows, trace=$trace -> $log" >&2

for ((i = 0; i < pairs; i++)); do
	order="base change"
	((i % 2)) && order="change base"
	for side in $order; do
		dir=$root
		[[ $side == base ]] && dir=$tree
		# A run that fails its oracle exits 1 and still prints its line.
		line=$(bash "$dir/benchmark/run.sh" --workload "$workload" --seed $((seed + i)) --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1) || true
		jq -ce --arg side "$side" --argjson pair "$i" --argjson seed $((seed + i)) \
			'{side: $side, pair: $pair, seed: $seed} + .' <<<"$line" >>"$log" ||
			{ echo "bench-pairs: $side run of pair $i printed no result" >&2; exit 1; }
		echo "pair $i $side: $(jq -r '"failed \(.failed)/\(.attempted)"' <<<"$line")" >&2
	done
done

# name, better, bound (or "-") of the metrics to print, then pair, side,
# name, value of every one measured.
list=end_to_end
((trace)) && list=per_layer
{
	jq -r --arg l "$list" '.[$l][] | ["M", .name, .better, (.bound // "-")] | @tsv' "$spec"
	jq -r '. as $r | .metrics | to_entries[] | ["V", $r.pair, $r.side, .key, .value.value] | @tsv' "$log"
	jq -r '["F", .side, .failed, .attempted] | @tsv' "$log"
} | awk -F'\t' '
function quart(side, name, p,    n, i, j, t, a, h) { # type-7 quantile of v[side,name,*]
	n = 0
	for (i = 0; i < pairs; i++) if ((side, name, i) in v) a[n++] = v[side, name, i]
	for (i = 1; i < n; i++) for (j = i; j > 0 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	if (n == 0) return 0
	h = p * (n - 1); i = int(h)
	return i + 1 < n ? a[i] + (h - i) * (a[i+1] - a[i]) : a[i]
}
$1 == "M" { names[nm++] = $2; better[$2] = $3; bound[$2] = $4 }
$1 == "V" { v[$3, $4, $2] = $5 + 0; if ($2 + 1 > pairs) pairs = $2 + 1 }
$1 == "F" { failed[$2] += $3; attempted[$2] += $4 }
END {
	printf "%-34s %-6s %-34s %-34s %9s %6s %s\n", "metric", "better", "base median [q1, q3]", "change median [q1, q3]", "worse by", "bound", "change wins/ties/pairs"
	for (k = 0; k < nm; k++) {
		m = names[k]; wins = ties = 0
		if (!(("base", m, 0) in v)) continue # not measured in this kind of run
		for (i = 0; i < pairs; i++) {
			b = v["base", m, i]; c = v["change", m, i]
			if (c == b) ties++
			else if ((better[m] == "lower") == (c < b)) wins++
		}
		bm = quart("base", m, .5); cm = quart("change", m, .5)
		worse = bm == 0 ? 0 : (better[m] == "lower" ? cm - bm : bm - cm) / (bm < 0 ? -bm : bm) * 100
		printf "%-34s %-6s %-34s %-34s %+8.1f%% %6s %d/%d/%d\n", m, better[m], \
			sprintf("%.4g [%.4g, %.4g]", bm, quart("base", m, .25), quart("base", m, .75)), \
			sprintf("%.4g [%.4g, %.4g]", cm, quart("change", m, .25), quart("change", m, .75)), \
			worse, (bound[m] == "-" ? "-" : (bound[m] * 100) "%"), wins, ties, pairs
	}
	printf "failed/attempted: base %d/%d, change %d/%d\n", failed["base"], attempted["base"], failed["change"], attempted["change"]
}'
