#!/usr/bin/env bash
# A/B of the repository benchmark: the committed tree at PARENT_REV
# against the working tree, in alternating pairs of runs.
#
#   scripts/ab.sh PARENT_REV WORKLOAD PAIRS [BENCHMARK_ARGS...]
#
# Builds the benchmark from a clean copy of PARENT_REV under target/ab/
# and from the working tree, then runs PAIRS pairs of one WORKLOAD at the
# benchmark's default run length (BENCHMARK_ARGS, e.g. `--seed 11`, go to
# both sides). Pair i runs the parent first when i is even and the
# change first when i is odd, so slow drift of the host falls on both
# sides. Prints every pair, then each side's median and quartiles of
# the host metrics host_xfers_per_ref, setup_s and peak_rss_mib, and for
# each the number of pairs the change won in the metric's better
# direction: host_xfers_per_ref higher, setup_s and peak_rss_mib lower.
# The same table shows host.reference_us, the benchmark's timing of its
# fixed reference loop: a host that ran in different modes for the two
# sides shows as different medians there, and no winner is counted.
# Last, one line on the simulated results sim_init_us, sim_xfer_p50_us,
# sim_xfer_p99_us and fail_frac: identical in all 2 x PAIRS runs, or the
# first run and metric that differ from the parent's first run.
#
# Informational only: it takes minutes, and host noise would make a gate
# on it flaky, so ci.sh does not run it.
set -euo pipefail
if [ $# -lt 3 ]; then
  echo "usage: $0 PARENT_REV WORKLOAD PAIRS [BENCHMARK_ARGS...]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3
shift 3
cd "$(dirname "$0")/.."
root=$(pwd)
ab=$root/target/ab
parent=$ab/parent-src
rm -rf "$parent"
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"

build() { # SRC_DIR OUT_BIN
  cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
  cp "$1/benchmark/target/release/udma-benchmark" "$2"
}
echo "building parent ($(git rev-parse --short "$rev")) and change (working tree)" >&2
build "$parent" "$ab/parent.bin"
build "$root" "$ab/change.bin"

metric() { # NAME < benchmark output
  awk -v w="$workload" -v m="$1" '$1 == "METRIC" && $2 == w && $3 == m { print $4 }'
}
# runs.txt columns: side, pair, then these metrics in order.
recorded=(host_xfers_per_ref setup_s peak_rss_mib host.reference_us sim_init_us sim_xfer_p50_us
  sim_xfer_p99_us fail_frac)
hosts=4 # the first `hosts` recorded metrics are host-timed, the rest simulated
: >"$ab/runs.txt"
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    out=$("$ab/$side.bin" --workload "$workload" "$@" 2>/dev/null) || {
      echo "$side run failed in pair $i" >&2
      exit 1
    }
    row="$side $i"
    for m in "${recorded[@]}"; do
      row+=" $(metric "$m" <<<"$out")"
    done
    echo "$row" >>"$ab/runs.txt"
  done
  awk -v i="$i" '$2 == i { x[$1] = $3; s[$1] = $4; r[$1] = $5; u[$1] = $6 } END {
    printf "pair %2d  host_xfers_per_ref %.4f -> %.4f  setup_s %.6f -> %.6f  peak_rss_mib %.2f -> %.2f  host.reference_us %.3f -> %.3f\n",
      i, x["parent"], x["change"], s["parent"], s["change"], r["parent"], r["change"],
      u["parent"], u["change"] }' "$ab/runs.txt"
done

quartiles() { # SIDE COLUMN -> "q1 median q3" (linear interpolation)
  awk -v s="$1" -v c="$2" '$1 == s { print $c }' "$ab/runs.txt" | sort -g | awk '
    { x[NR] = $1 }
    function q(p,   h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return x[lo] + (h - lo) * (x[lo + 1] - x[lo]) }
    END { x[NR + 1] = x[NR]; printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}
echo "workload $workload, $pairs pairs${*:+, args: $*}"
printf '%-20s %-7s %10s %10s %10s\n' metric side q1 median q3
# NAME COLUMN BETTER: the column runs.txt keeps the metric in, and the
# direction in which the change wins a pair.
metrics=("host_xfers_per_ref 3 higher" "setup_s 4 lower" "peak_rss_mib 5 lower")
for m in "${metrics[@]}" "host.reference_us 6 -"; do
  read -r name col _ <<<"$m"
  for side in parent change; do
    read -r q1 med q3 <<<"$(quartiles "$side" "$col")"
    printf '%-20s %-7s %10s %10s %10s\n' "$name" "$side" "$q1" "$med" "$q3"
  done
done
for m in "${metrics[@]}"; do
  read -r name col better <<<"$m"
  awk -v c="$col" -v better="$better" -v name="$name" '{ v[$2, $1] = $c; n[$2] = 1 } END {
    for (i in n) {
      total++
      d = v[i, "change"] - v[i, "parent"]
      if ((better == "higher" && d > 0) || (better == "lower" && d < 0)) wins++
    }
    printf "change wins %d of %d pairs on %s (%s is better)\n", wins, total, name, better }' \
    "$ab/runs.txt"
done
# Simulated results depend on the seed alone: any difference between
# runs is a change in what the program simulates, not host noise.
awk -v names="${recorded[*]}" -v hosts="$hosts" 'BEGIN {
    n = split(names, name, " ")
    for (c = hosts + 1; c <= n; c++) sims = sims (c > hosts + 1 ? " " : "") name[c]
  } {
    if (NR == 1) { for (c = hosts + 3; c <= n + 2; c++) ref[c] = $c; next }
    for (c = hosts + 3; c <= n + 2; c++) if ($c != ref[c] && !diff) {
      diff = sprintf("%s run of pair %d: %s %s, against %s in the first parent run",
        $1, $2, name[c - 2], $c, ref[c])
    }
  } END {
    if (diff) print "simulated results differ: " diff
    else printf "simulated results (%s) identical in all %d runs\n", sims, NR }' "$ab/runs.txt"
