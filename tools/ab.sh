#!/usr/bin/env bash
# A/B end-to-end benchmark of one workload: this tree against another
# checkout (for example a `git clone` of the parent commit).
#
# Usage: tools/ab.sh PARENT_CHECKOUT WORKLOAD PAIRS [SEED]
#
#   PARENT_CHECKOUT  the baseline checkout (side A)
#   WORKLOAD         suite | fleet_cold | fleet_warm | fleet_full
#   PAIRS            number of run pairs (one run per side each)
#   SEED             benchmark seed, default 2019
#
# Each run is `python3 benchmarks/e2e/run.py --workload W --seed S
# --seconds 12 --out RECORD` in its own checkout, so each side imports
# its own sources.  Odd pairs run the baseline first and even pairs this
# tree first, so drift in host speed favors neither side.  Records land
# in a new temporary directory, under parent/ and tree/, whose path is
# printed; then benchmarks/e2e/compare.py compares the two directories
# and the script exits with its status.  A run that fails, or whose result
# does not read "correct": true, is reported on stderr.
set -u

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    sed -n '5,10p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
tree=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=$3
seed=${4:-2019}
case $pairs in
    '' | *[!0-9]* | 0) echo "ab: PAIRS must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
out=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX") || exit 2
mkdir -p "$out/parent" "$out/tree" || exit 2
echo "ab: records in $out" >&2

# run SIDE CHECKOUT PAIR: one benchmark run; prints its result line.
run() {
    local side=$1 checkout=$2 pair=$3 last
    local record="$out/$side/$workload-s$seed-p$pair.json"
    echo "== pair $pair/$pairs: $side ($checkout)" >&2
    last=$(cd "$checkout" && python3 benchmarks/e2e/run.py --workload "$workload" \
        --seed "$seed" --seconds 12 --out "$record" | tail -n 1)
    echo "$last"
    case $last in
        *'"correct": true'*) ;;
        *) echo "ab: the $side run of pair $pair has no correct result" >&2 ;;
    esac
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent" "$pair"
        run tree "$tree" "$pair"
    else
        run tree "$tree" "$pair"
        run parent "$parent" "$pair"
    fi
done
python3 "$tree/benchmarks/e2e/compare.py" "$out/parent" "$out/tree"
