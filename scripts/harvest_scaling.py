#!/usr/bin/env python3
"""Harvest sweep_runner {"scaling"} records into BENCH_engine.json.

sweep_runner appends a trailing {"scaling": {...}} record to its JSON
output on hosts with more than one hardware thread
(src/analysis/scaling_record.h). The CI `scaling` job gates on that
record; this script turns the same measurement into history: it appends
each record to the `scaling_trajectory` array of BENCH_engine.json, so
multi-core throughput is tracked across PRs instead of asserted and
thrown away.

Usage:
    scripts/harvest_scaling.py [--bench BENCH_engine.json]
                               [--note TEXT] [--check] SWEEP_JSON...

Each SWEEP_JSON is a sweep_runner output file. Files without a scaling
record (single-core hosts, --deterministic runs) are skipped with a
notice, so the trajectory only holds multi-core measurements. Entries
are deduplicated on the full scaling record (re-running the harvester
on the same files is idempotent). --check verifies the harvested
entries are already present (CI mode: proves the channel works without
mutating the tree).
"""
import argparse
import datetime
import json
import sys


def load_scaling(path):
    with open(path) as f:
        records = json.load(f)
    tails = [r["scaling"] for r in records if isinstance(r, dict) and "scaling" in r]
    if not tails:
        print(f"harvest_scaling: {path}: no scaling record "
              "(single-core host or --deterministic run), skipping")
        return None
    if len(tails) > 1:
        raise SystemExit(f"{path}: {len(tails)} scaling records, want <= 1")
    return tails[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCH_engine.json")
    ap.add_argument("--note", default="", help="commit/context note for the entries")
    ap.add_argument("--check", action="store_true",
                    help="verify entries are already harvested; do not write")
    ap.add_argument("sweeps", nargs="+", metavar="SWEEP_JSON")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    trajectory = bench.setdefault("scaling_trajectory", [])
    seen = [e["scaling"] for e in trajectory]

    harvested, missing = 0, []
    for path in args.sweeps:
        s = load_scaling(path)
        if s is None:
            continue
        if s in seen:
            print(f"harvest_scaling: {path}: already in trajectory")
            continue
        entry = {
            "date": datetime.date.today().isoformat(),
            "source": path,
            "scaling": s,
        }
        if args.note:
            entry["note"] = args.note
        if args.check:
            missing.append(path)
        else:
            trajectory.append(entry)
            seen.append(s)
            harvested += 1

    if args.check:
        if missing:
            print(f"harvest_scaling: --check: {len(missing)} unharvested "
                  f"record(s): {', '.join(missing)}")
            return 1
        print("harvest_scaling: --check: trajectory is up to date")
        return 0

    if harvested:
        with open(args.bench, "w") as f:
            json.dump(bench, f, indent=2)
            f.write("\n")
    print(f"harvest_scaling: {harvested} new entr"
          f"{'y' if harvested == 1 else 'ies'}; trajectory now "
          f"{len(trajectory)} entr{'y' if len(trajectory) == 1 else 'ies'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
