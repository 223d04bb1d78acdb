#!/usr/bin/env sh
# Order-alternated perfbench pairs: the committed tree at REV ("base")
# against the working tree ("head"), one process at a time.
#
#   sh scripts/perf_pairs.sh REV WORKLOAD PAIRS SECONDS
#
# REV's committed files are unpacked under target/perf-pairs/base (with
# `git archive`, so nothing is registered in .git), and each tree's
# perfbench is built into a target dir of its own. Pair i runs base
# first when i is odd and head first when it is even; every run uses
# `--seed 3 --trace 0` from the root of its own tree. Each run's
# end-to-end metrics and steal share are printed as they finish, then
# every metric's median, quartiles and range per side. Each run's line
# shows the source_digest it measured; before timing, the script exits
# non-zero when both trees have the same digest. Run it from the
# repository.
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 REV WORKLOAD PAIRS SECONDS" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4
root=$(git rev-parse --show-toplevel)
out=$root/target/perf-pairs

# tree SIDE: the root of SIDE's tree.
tree() {
    if [ "$1" = base ]; then echo "$out/base"; else echo "$root"; fi
}

rm -rf "$out/base"
mkdir -p "$out/base"
git -C "$root" archive "$rev" | tar -x -C "$out/base"

for side in base head; do
    CARGO_TARGET_DIR=$out/$side-target cargo build --release --quiet --offline \
        --manifest-path "$(tree "$side")/perfbench/Cargo.toml"
done

# digest SIDE: the source_digest perfbench reports for SIDE's tree, from
# a short frames-paremsp run (the workload with the quickest set-up).
digest() {
    (cd "$(tree "$1")" && "$out/$1-target/release/perfbench" --workload frames-paremsp \
        --seed 3 --seconds 0.01 --trace 0 2>/dev/null) |
        grep -o '"source_digest":"[0-9a-f]*"' | cut -d'"' -f4
}

# Both sides must measure different sources: `git_commit` names HEAD for
# a working tree with uncommitted changes, so only the digest tells them
# apart.
base_digest=$(digest base)
head_digest=$(digest head)
echo "source_digest base=${base_digest:-?} head=${head_digest:-?}"
if [ -z "$base_digest" ] || [ -z "$head_digest" ]; then
    echo "could not read a source_digest from both trees" >&2
    exit 1
fi
if [ "$base_digest" = "$head_digest" ]; then
    echo "base and head have the same source_digest: nothing to compare" >&2
    exit 1
fi

# run SIDE PAIR: one perfbench run; appends "side metric value" lines to
# the results file and prints the run's metrics on one line.
results=$out/results.txt
: >"$results"
run() {
    log=$out/$1-pair$2.log
    (cd "$(tree "$1")" && "$out/$1-target/release/perfbench" --workload "$workload" \
        --seed 3 --seconds "$seconds" --trace 0 >"$log" 2>/dev/null) ||
        echo "pair $2 $1: perfbench exited non-zero (see $log)" >&2
    meta=$(tail -n 2 "$log" | head -n 1)
    steal=$(echo "$meta" | grep -o '"steal_share_median":[-0-9.e]*' | cut -d: -f2)
    digest=$(echo "$meta" | grep -o '"source_digest":"[0-9a-f]*"' | cut -d'"' -f4)
    tail -n 1 "$log" | grep -o '"[a-z0-9_]*":{"value":[-0-9.e+]*' |
        sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' |
        awk -v side="$1" -v pair="$2" -v steal="$steal" -v digest="$digest" -v res="$results" '
            { print side, $1, $2 >> res; line = line sprintf(" %s=%.4g", $1, $2) }
            END { printf "pair %s %-4s digest=%s steal=%s%s\n", pair, side, digest, steal, line }'
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run head "$i"
    else
        run head "$i"
        run base "$i"
    fi
    i=$((i + 1))
done

echo "median [quartiles] (min-max) over $pairs runs per side, $workload, ${seconds}s, seed 3"
sort -k2,2 -k1,1 -k3,3g "$results" | awk '
    # linearly interpolated quantile of the sorted v[1..n]
    function q(p,    pos, lo) {
        pos = 1 + (n - 1) * p
        lo = int(pos)
        return lo < n ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[n]
    }
    function flush() {
        if (n == 0) return
        printf "  %-18s %-4s %10.4g [%.4g, %.4g] (%.4g-%.4g)\n",
            key_metric, key_side, q(0.5), q(0.25), q(0.75), v[1], v[n]
        n = 0
    }
    $2 != key_metric || $1 != key_side { flush(); key_metric = $2; key_side = $1 }
    { v[++n] = $3 }
    END { flush() }'
