#!/usr/bin/env bash
# Non-test Go code lines (no blank lines, no comments) per package: the
# count CHANGES.md records before and after a PR.
#
#   scripts/loc.sh [DIR...]            # every package, or the packages under DIR, per file too
#   BASE=<rev> scripts/loc.sh [DIR...] # also <rev>'s counts (read with git archive) and the delta
#   make loc [BASE=<rev>] [DIRS="internal/lockservice ..."]
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

# count TREE prints "<file> <lines>" for every non-test .go file under
# TREE (or under TREE/DIR for each DIR argument), paths relative to TREE.
count() {
	local tree=$1
	shift
	(cd "$tree" && find "${@:-.}" -name '*.go' ! -name '*_test.go' ! -path '*/.bench_build/*' 2>/dev/null | sed 's|^\./||' | sort |
		while read -r f; do
			awk -v f="$f" '
				{ s = $0; sub(/^[ \t]+/, "", s) }
				inblock { if (index(s, "*/")) inblock = 0; next }
				s == "" || substr(s, 1, 2) == "//" { next }
				substr(s, 1, 2) == "/*" { if (!index(s, "*/")) inblock = 1; next }
				{ n++ }
				END { print f, n + 0 }' "$f"
		done)
}

# align pads columns: the first to the left, numbers to the right.
align() {
	awk '{ for (i = 1; i <= NF; i++) { r[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } nf[NR] = NF }
	END { for (n = 1; n <= NR; n++) { l = ""
		for (i = 1; i <= nf[n]; i++) l = l sprintf(i == 1 ? "%-" w[i] "s" : "  %" w[i] "s", r[n, i])
		print l } }'
}

# bypkg turns "<file> <lines>" into "<dir> <lines>", summed.
bypkg() { awk '{ d = $1; sub(/\/[^\/]*$/, "", d); if (d == $1) d = "."; s[d] += $2 } END { for (d in s) print d, s[d] }' | sort; }

now=$(count "$root" "$@")
if [ -z "${BASE:-}" ]; then
	{
		echo "package lines"
		echo "$now" | bypkg
		echo "$now" | awk '{ n += $2 } END { print "total", n + 0 }'
		if [ $# -gt 0 ]; then echo; echo "file lines"; echo "$now"; fi
	} | align
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$BASE" | tar -x -C "$tmp"
then_=$(count "$tmp" "$@")

# join prints "<name> <base> <now> <delta>" for names on either side.
join_() { awk 'NR == FNR { b[$1] = $2; k[$1] = 1; next } { c[$1] = $2; k[$1] = 1 }
	END { for (x in k) print x, b[x] + 0, c[x] + 0, c[x] - b[x] }' <(echo "$1") <(echo "$2") | sort; }
{
	echo "package $BASE now delta"
	join_ "$(echo "$then_" | bypkg)" "$(echo "$now" | bypkg)"
	awk '{ b += $2; c += $3 } END { print "total", b, c, c - b }' <(join_ "$(echo "$then_" | bypkg)" "$(echo "$now" | bypkg)")
	if [ $# -gt 0 ]; then
		echo
		echo "file $BASE now delta"
		join_ "$then_" "$now"
	fi
} | align
