#!/usr/bin/env bash
# Alternated paired runs of one benchmark workload: the committed tree at
# REF against the working tree.
#
#   bash scripts/pair.sh REF WORKLOAD N      (or: make pair REF=... W=... N=...)
#
# REF is exported with git archive into a temporary directory, so the
# repository's .git is not touched and nothing is left behind. Pair i runs
# `bash bench/run.sh --workload WORKLOAD --seed i --seconds 15` once on each
# side, REF first on odd i and the working tree first on even i, so a drift
# of the host over the session falls on both sides alike. For each
# end-to-end metric BENCHMARK.json declares it prints REF's and the working
# tree's medians, REF's interquartile range and the working tree's wins out
# of N (a win is a strictly better value in the declared direction), then
# each side's failed operations. Each run's result line is kept under
# out/pair/.
set -euo pipefail
if [ $# -ne 3 ] || ! [[ $3 =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: $0 REF WORKLOAD N   (N >= 1 pairs)" >&2
	exit 2
fi
ref=$1 workload=$2 n=$3
cd "$(git rev-parse --show-toplevel)"
rev=$(git rev-parse --verify "$ref^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$rev" | tar -x -C "$tmp/ref"
out=out/pair
mkdir -p "$out"

# run SIDE DIR SEED: one untraced run, its JSON result line kept as
# $out/SIDE.SEED.json. A run whose output checks failed still has its
# line (the failures are counted below); one without a line stops here.
run() {
	echo "pair.sh: $1 seed $3" >&2
	local line
	line=$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds 15 --trace 0 | tail -n 1) || true
	if [[ $line != '{'* ]]; then
		echo "pair.sh: $1 seed $3 printed no result line" >&2
		exit 1
	fi
	echo "$line" >"$out/$1.$3.json"
}
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run ref "$tmp/ref" "$i"
		run change . "$i"
	else
		run change . "$i"
		run ref "$tmp/ref" "$i"
	fi
done

# value FILE METRIC: the metric's value in one result line.
value() { grep -o "\"$2\":{\"value\":[^,}]*" "$1" | sed 's/.*://'; }

# The end-to-end metrics and their directions, from BENCHMARK.json.
metrics=$(awk '/"end_to_end"/ {on = 1} /"per_layer"/ {on = 0}
	on && /"name"/ {gsub(/.*"name": *"|".*/, ""); name = $0}
	on && /"better"/ {gsub(/.*"better": *"|".*/, ""); print name, $0}' BENCHMARK.json)

echo "$workload: $n pairs, $(git rev-parse --short "$rev") (ref) vs the working tree (change)"
printf '%-14s %12s %12s %12s %8s\n' metric "ref median" "change med" "ref IQR" wins
while read -r name better; do
	for ((i = 1; i <= n; i++)); do
		echo "$(value "$out/ref.$i.json" "$name") $(value "$out/change.$i.json" "$name")"
	done | awk -v name="$name" -v better="$better" '
		# q: the p-quantile of sorted v[1..k], linearly interpolated.
		function q(v, k, p,   h, lo) {
			h = (k - 1) * p + 1; lo = int(h)
			return lo >= k ? v[k] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
		}
		function sort(v, k,   i, j, t) {
			for (i = 2; i <= k; i++)
				for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		}
		{ r[NR] = $1; c[NR] = $2; if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
		END {
			sort(r, NR); sort(c, NR)
			printf "%-14s %12.4g %12.4g %12.4g %5d/%d\n", name, q(r, NR, 0.5), q(c, NR, 0.5), q(r, NR, 0.75) - q(r, NR, 0.25), wins, NR
		}'
done <<<"$metrics"
for side in ref change; do
	failed=0
	for ((i = 1; i <= n; i++)); do
		f=$(grep -o '"failed":[0-9]*' "$out/$side.$i.json" | sed 's/.*://')
		failed=$((failed + f))
	done
	echo "$side: $failed failed operations"
done
