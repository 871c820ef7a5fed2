#!/usr/bin/env bash
# A/A check: the same code measured twice must agree with itself.
#
# Runs two full sets back to back. A set is RUNS runs (default 10) of every
# workload, each run with another --seed, at the run length BENCHMARK.json
# fixes. For every workload x end-to-end metric it prints
#
#   spread_a, spread_b   distance between the first and third quartile of the
#                        set's values over their median (statistics.quantiles)
#   diff                 how much worse set B's median is than set A's
#
# beside the metric's bound, and exits non-zero when a spread (setup_s
# excepted, as in the driver's check) or a diff exceeds it. This is the check
# the driver applies before it accepts the benchmark.
#
#   benchmark/aa.sh                    # from the repo root; ~35 min
#   RUNS=4 benchmark/aa.sh food_18k    # fewer seeds, one workload
set -euo pipefail

cd "$(dirname "$0")/.."
RUNS="${RUNS:-10}"
OUT="${OUT:-benchmark/out/aa}"
TARGET="${CARGO_TARGET_DIR:-benchmark/target}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$TARGET"
BIN="$TARGET/release/holobench"

mkdir -p "$OUT"
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ "$#" -gt 0 ]; then
  WORKLOADS=("$@")
else
  mapfile -t WORKLOADS < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

for set in a b; do
  for workload in "${WORKLOADS[@]}"; do
    for seed in $(seq 1 "$RUNS"); do
      echo "set $set  $workload  seed $seed  loadavg $(cut -d' ' -f1-3 /proc/loadavg)" >&2
      "$BIN" --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
        --out "$OUT/files" | tail -n 1 > "$OUT/${set}_${workload}_${seed}.json"
    done
  done
done

python3 - "$OUT" "$RUNS" "${WORKLOADS[@]}" <<'PY'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]


def load(set_name, workload, metric):
    values = []
    for seed in range(1, runs + 1):
        result = json.load(open(f"{out}/{set_name}_{workload}_{seed}.json"))
        if not result["correct"] or result["failed"]:
            sys.exit(f"set {set_name} {workload} seed {seed}: incorrect output")
        values.append(result["metrics"][metric]["value"])
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


breaches = 0
print(f"{'workload':24}{'metric':14}{'median_a':>14}{'median_b':>14}"
      f"{'spread_a':>10}{'spread_b':>10}{'diff':>9}{'bound':>8}")
for workload in workloads:
    for m in metrics:
        a, b = load("a", workload, m["name"]), load("b", workload, m["name"])
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
        spreads = (spread(a), spread(b)) if runs >= 2 else (0.0, 0.0)
        bad = worse > m["bound"] or (m["name"] != "setup_s" and max(spreads) > m["bound"])
        breaches += bad
        print(f"{workload:24}{m['name']:14}{med_a:14.6g}{med_b:14.6g}"
              f"{spreads[0]:10.3f}{spreads[1]:10.3f}{worse:+9.3f}{m['bound']:8.3f}"
              f"{'  BREACH' if bad else ''}")
print(f"{breaches} breach(es)")
sys.exit(1 if breaches else 0)
PY
