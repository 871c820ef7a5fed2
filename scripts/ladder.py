#!/usr/bin/env python3
"""The scale ladder: per-stage cost of one repair across table sizes.

Runs `diag --json --threads 1` once per rung and prints, per stage, its
milliseconds, ns per row and ns per unit of the work it scales with (noisy
cell for both Algorithm 2 prunes, variable for featurization), the growth
of ns/row from the rung below of the same dataset, and the process's peak
RSS. `load` is the CSV parse of the rung's dirty table (`timings.load_s`),
which the pipeline total leaves out. The generator is timed as the process
wall-clock minus the pipeline's `timings.total_s` and the load. Below the
stages, `statistics bytes/row` is the co-occurrence statistics' count
storage (`stats.bytes`) over the rung's rows.

Rungs (paper scale = 1x): Hospital 1x (the default 1 k-row table, the one
rung small enough that its statistics keep some pair blocks as CSR
postings by the rows bound rather than the cell cap); Food 0.1x (`--full
--scale 0.1`, 17 k rows) and 1x (`--full`, 170 k); Physicians 0.1x
(`--full`, 207 k) and 1x (`--full --scale 10`, 2.07 M). `--big` adds Food
10x (`--full --scale 10`).

Exits 1 if a stage is missing from a rung's output or a number is not
finite; it gates nothing else (no growth ratio is enforced).

    cargo build --release -p holo-bench --bin diag
    python3 scripts/ladder.py [--big] [--diag target/release/diag]
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

RUNGS = [
    ("hospital", "1x", []),
    ("food", "0.1x", ["--full", "--scale", "0.1"]),
    ("food", "1x", ["--full"]),
    ("physicians", "0.1x", ["--full"]),
    ("physicians", "1x", ["--full", "--scale", "10"]),
]
BIG = [("food", "10x", ["--full", "--scale", "10"])]

# (stage, where diag --json keeps its seconds, the unit it scales with)
STAGES = [
    ("load", ("timings", "load_s"), None),
    ("detect", ("timings", "detect_s"), None),
    ("statistics", ("compile", "phases", "stats_build_s"), None),
    ("index build", ("compile", "phases", "index_build_s"), None),
    ("noisy prune", ("compile", "phases", "noisy_prune_s"), "noisy_cells"),
    ("evidence prune", ("compile", "phases", "evidence_prune_s"), "noisy_cells"),
    ("variables", ("compile", "phases", "variables_s"), "vars"),
    ("featurizer setup", ("compile", "phases", "featurizer_setup_s"), None),
    ("featurize", ("compile", "phases", "featurize_s"), "vars"),
    ("assemble", ("compile", "phases", "assemble_s"), None),
    ("learn", ("timings", "learn_s"), None),
    ("infer", ("timings", "infer_s"), None),
    ("pipeline", ("timings", "total_s"), None),
]


def lookup(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def run_rung(diag, dataset, flags):
    env = dict(os.environ, DIAG_DATASET=dataset)
    started = time.monotonic()
    out = subprocess.run(
        [diag, "--json", "--threads", "1", *flags],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
    )
    wall = time.monotonic() - started
    return json.loads(out.stdout), wall


def measure(doc, wall):
    """Per stage (ms, ns/row, ns/unit); the problems found, if any."""
    shape = doc.get("shape", {})
    rows = shape.get("rows")
    units = {
        "noisy_cells": shape.get("noisy_cells"),
        "vars": (shape.get("query_vars") or 0) + (shape.get("evidence_vars") or 0),
    }
    problems = [f"shape.{k} missing" for k in ("rows", "noisy_cells") if k not in shape]
    rows = rows or 0
    stages = {}
    for name, path, unit in STAGES:
        seconds = lookup(doc, path)
        if seconds is None:
            problems.append(f"stage {name} missing ({'.'.join(path)})")
            continue
        per_unit = None
        if unit is not None and units[unit]:
            per_unit = seconds * 1e9 / units[unit]
        stages[name] = (seconds * 1e3, seconds * 1e9 / rows if rows else math.nan, per_unit)
    total = lookup(doc, ("timings", "total_s"))
    load = lookup(doc, ("timings", "load_s")) or 0.0
    generator = wall - total - load if total is not None else math.nan
    stages["generator + rest"] = (generator * 1e3, generator * 1e9 / rows if rows else math.nan, None)
    rss = lookup(doc, ("memory", "peak_rss_mb"))
    for name, values in stages.items():
        if any(v is not None and not math.isfinite(v) for v in values):
            problems.append(f"stage {name}: non-finite {values}")
    if rss is None or not math.isfinite(rss):
        problems.append(f"peak_rss_mb not finite: {rss}")
    stats_bytes = lookup(doc, ("stats", "bytes"))
    bytes_per_row = stats_bytes / rows if stats_bytes is not None and rows else math.nan
    if not math.isfinite(bytes_per_row):
        problems.append(f"statistics bytes/row not finite: {stats_bytes} over {rows} rows")
    return stages, rss, bytes_per_row, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--big", action="store_true", help="add Food 10x (1.7 M rows)")
    parser.add_argument("--diag", default="target/release/diag", help="the diag binary")
    args = parser.parse_args()
    rungs = RUNGS + (BIG if args.big else [])

    failures = []
    below = {}  # dataset -> stages of its previous rung
    for dataset, label, flags in rungs:
        doc, wall = run_rung(args.diag, dataset, flags)
        stages, rss, bytes_per_row, problems = measure(doc, wall)
        failures += [f"{dataset} {label}: {p}" for p in problems]
        shape = doc.get("shape", {})
        print(
            f"\n{dataset} {label} ({' '.join(flags)}): {shape.get('rows')} rows, "
            f"{shape.get('noisy_cells')} noisy cells, {shape.get('query_vars')} query + "
            f"{shape.get('evidence_vars')} evidence vars, wall {wall:.2f} s, "
            f"peak RSS {rss} MB"
        )
        print(f"  {'stage':<18}{'ms':>10}{'ns/row':>10}{'ns/unit':>10}{'x ns/row':>10}")
        prev = below.get(dataset, {})
        for name, (ms, per_row, per_unit) in stages.items():
            unit = f"{per_unit:10.1f}" if per_unit is not None else f"{'':>10}"
            growth = ""
            if name in prev and prev[name][1] > 0:
                growth = f"{per_row / prev[name][1]:10.2f}"
            print(f"  {name:<18}{ms:10.1f}{per_row:10.1f}{unit}{growth}")
        print(f"  statistics bytes/row {bytes_per_row:.1f}")
        below[dataset] = stages
    if failures:
        print("\nladder: " + "; ".join(failures), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
