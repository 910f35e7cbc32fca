#!/usr/bin/env bash
# Same-machine A/B of the end-to-end benchmark (perfbench/run.py).
#
#   scripts/bench_ab.sh [-n PAIRS] <rev>
#
# Exports <rev> into a temporary directory (git archive: a clean tree with
# no link back to this repository's .git) and runs perfbench/run.py there
# ("base") and in the working tree ("head"), taking turns: PAIRS pairs
# (default 3) per workload, the order flipped every pair (base-head,
# head-base, ...) so a drifting machine load does not favour one side.
# Workloads and run length come from BENCHMARK.json; the seed is 1. Prints,
# per workload and metric, both medians, the change in %, the
# BENCHMARK.json bound and whether the change is worse than that bound,
# then each side's failed request counts. Raw results stay in the
# temporary directory, which is printed and kept; set TMPDIR to choose
# where it goes. Run from anywhere inside the repository.
set -euo pipefail

PAIRS=3
while getopts "n:" Opt; do
  case $Opt in
    n) PAIRS=$OPTARG ;;
    *) sed -n '4p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || { sed -n '4p' "$0" >&2; exit 2; }

HEAD_DIR=$(git rev-parse --show-toplevel)
REV=$(git -C "$HEAD_DIR" rev-parse --verify "$1^{commit}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
BASE_DIR=$WORK/base
mkdir -p "$BASE_DIR" "$WORK/results"
git -C "$HEAD_DIR" archive "$REV" | tar -x -C "$BASE_DIR"
echo "base = $REV (in $BASE_DIR), head = working tree of $HEAD_DIR"
BENCH=$HEAD_DIR/BENCHMARK.json
SECONDS_PER_RUN=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$BENCH")
WORKLOADS=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$BENCH")

run_one() { # side dir workload pair
  local Out=$WORK/results/$3.$1.$4
  (cd "$2" && python3 perfbench/run.py --workload "$3" --seed 1 \
      --seconds "$SECONDS_PER_RUN" --trace 0) > "$Out.log" 2>&1 ||
    echo "bench_ab: $1 run $4 of $3 failed (see $Out.log)" >&2
  tail -n 1 "$Out.log" > "$Out.json"
}

for W in $WORKLOADS; do
  for ((I = 0; I < PAIRS; ++I)); do
    if ((I % 2 == 0)); then
      run_one base "$BASE_DIR" "$W" "$I"; run_one head "$HEAD_DIR" "$W" "$I"
    else
      run_one head "$HEAD_DIR" "$W" "$I"; run_one base "$BASE_DIR" "$W" "$I"
    fi
  done
done

python3 - "$WORK/results" "$BENCH" $WORKLOADS <<'EOF'
import glob, json, os, statistics, sys

results, bench, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
with open(bench) as f:
    ends = json.load(f)["end_to_end"]

def load(workload, side):
    runs = []
    for path in sorted(glob.glob(os.path.join(results, f"{workload}.{side}.*.json"))):
        try:
            with open(path) as f:
                runs.append(json.load(f))
        except (ValueError, OSError):
            runs.append(None)  # the run died before printing its result
    return runs

for w in workloads:
    sides = {s: load(w, s) for s in ("base", "head")}
    print(f"\n== {w}: {len(sides['base'])} base / {len(sides['head'])} head runs")
    print(f"{'metric':<14}{'base':>12}{'head':>12}{'change':>10}{'bound':>8}")
    for m in ends:
        meds = {}
        for s, runs in sides.items():
            vals = [r["metrics"][m["name"]]["value"] for r in runs
                    if r and m["name"] in r.get("metrics", {})]
            meds[s] = statistics.median(vals) if vals else None
        if meds["base"] is None or meds["head"] is None:
            continue
        b, h = meds["base"], meds["head"]
        change = (h - b) / b if b else 0.0
        worse = change if m["better"] == "lower" else -change
        flag = "  WORSE" if worse > m["bound"] else ""
        print(f"{m['name']:<14}{b:>12.4g}{h:>12.4g}{100 * change:>+9.1f}%"
              f"{100 * m['bound']:>7.0f}%{flag}")
    for s, runs in sides.items():
        counts = ["died" if not r else f"{r['failed']}/{r['attempted']}" for r in runs]
        print(f"failed ({s}): {' '.join(counts)}")
EOF
echo "raw results: $WORK/results"
