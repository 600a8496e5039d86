#!/usr/bin/env python3
"""Diff two BENCH_*.json trajectory files per (engine, query, threads) cell.

The bench drivers emit per-cell records with --json (either a bare array,
the legacy shape, or {"meta": {...}, "records": [...]}). This script joins
two such files on the cell key and summarizes what moved:

    scripts/bench_diff.py BENCH_pr2.json BENCH_pr3.json
    scripts/bench_diff.py old.json new.json --min-seconds 0.05

Output: one row per cell present in either file (old seconds, new seconds,
speedup new-vs-old, status flips), then a geometric-mean speedup over the
cells timed in both files. Cells faster in the new file show speedup > 1.
"""

import argparse
import json
import math
import sys


def load_records(path):
    """Returns (meta_dict, record_list) for either JSON shape."""
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict):
        return data.get("meta", {}), data.get("records", [])
    return {}, data


def cell_key(record):
    return (
        record.get("engine", "?"),
        record.get("query", "?"),
        record.get("threads", 1),
    )


def cell_status(record):
    if record.get("timed_out"):
        return "timeout"
    return "ok" if record.get("ok") else "fail"


def format_seconds(value):
    return "-" if value is None else f"{value:.3f}"


PHASE_FIELDS = (
    ("phase1", "phase1_seconds"),
    ("burnback", "burnback_seconds"),
    ("freeze", "freeze_seconds"),
    ("phase2", "phase2_seconds"),
)

# Meta keys that make two recordings incomparable when they disagree:
# different machines (hardware_threads), a different AG storage form
# (frozen), a different span-kernel dispatch (cpu_features — e.g. one
# recording ran AVX2 and the other the scalar fallback), or a different
# result transport (a loopback-socket recording against an in-process
# one measures the wire, not the engine) move every cell for reasons
# that are not the code under test. Same for retry: a recording taken
# through the retrying-client wrapper (BENCH_pr10_chaos.json) only
# compares against another one. The checked-in recordings still carry
# frozen, transport and retry, so all five keys stay.
COMPARABILITY_KEYS = ("hardware_threads", "frozen", "cpu_features",
                      "transport", "retry")


def print_comparability_warnings(old_meta, new_meta):
    mismatched = [
        (key, old_meta[key], new_meta[key])
        for key in COMPARABILITY_KEYS
        if key in old_meta and key in new_meta
        and old_meta[key] != new_meta[key]
    ]
    for key, old_value, new_value in mismatched:
        print(
            f"!!! WARNING: meta.{key} differs "
            f"(old={old_value}, new={new_value}) — the recordings are "
            "not comparable; speedups below measure the environment, "
            "not the code !!!"
        )
    return bool(mismatched)


def phase_breakdown(old, new):
    """One indented line diffing the per-phase wall times, or None.

    Only emitted when both recordings carry phase data for the cell
    (some phase field nonzero on each side — baselines and old
    recordings have all-zero phases)."""
    if old is None or new is None:
        return None
    if not any(old.get(f, 0.0) for _, f in PHASE_FIELDS):
        return None
    if not any(new.get(f, 0.0) for _, f in PHASE_FIELDS):
        return None
    parts = []
    for label, field in PHASE_FIELDS:
        old_s = old.get(field, 0.0) or 0.0
        new_s = new.get(field, 0.0) or 0.0
        if old_s == 0.0 and new_s == 0.0:
            continue
        ratio = f" ({old_s / new_s:.2f}x)" if old_s > 0 and new_s > 0 else ""
        parts.append(f"{label} {old_s:.3f}->{new_s:.3f}{ratio}")
    if not parts:
        return None
    return "    phases: " + "  ".join(parts)


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files per cell."
    )
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.0,
        help="ignore cells faster than this in both files (noise floor)",
    )
    args = parser.parse_args()

    old_meta, old_records = load_records(args.old)
    new_meta, new_records = load_records(args.new)
    for label, meta in (("old", old_meta), ("new", new_meta)):
        if meta:
            rendered = ", ".join(f"{k}={v}" for k, v in meta.items())
            print(f"{label} meta: {rendered}")
    warned = print_comparability_warnings(old_meta, new_meta)

    old_cells = {cell_key(r): r for r in old_records}
    new_cells = {cell_key(r): r for r in new_records}
    keys = sorted(set(old_cells) | set(new_cells))

    header = f"{'cell':<40} {'old (s)':>9} {'new (s)':>9} {'speedup':>8}  note"
    print(header)
    print("-" * len(header))

    ratios = []
    for key in keys:
        old = old_cells.get(key)
        new = new_cells.get(key)
        old_s = old.get("seconds") if old else None
        new_s = new.get("seconds") if new else None
        label = f"{key[0]}/{key[1]}@t{key[2]}"

        notes = []
        if old is None:
            notes.append("new cell")
        elif new is None:
            notes.append("removed")
        else:
            old_st, new_st = cell_status(old), cell_status(new)
            if old_st != new_st:
                notes.append(f"{old_st} -> {new_st}")
        speedup = ""
        if (
            old is not None
            and new is not None
            and old.get("ok")
            and new.get("ok")
            and old_s is not None
            and new_s is not None
        ):
            if min(old_s, new_s) <= 0.0:
                notes.append("zero-time cell")
            elif max(old_s, new_s) >= args.min_seconds:
                ratio = old_s / new_s
                ratios.append(ratio)
                speedup = f"{ratio:.2f}x"
            else:
                notes.append("below floor")
        print(
            f"{label:<40} {format_seconds(old_s):>9} "
            f"{format_seconds(new_s):>9} {speedup:>8}  {'; '.join(notes)}"
        )
        phases = phase_breakdown(old, new)
        if phases is not None:
            print(phases)

    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"\ngeomean speedup over {len(ratios)} comparable cells: "
              f"{geomean:.2f}x")
    else:
        print("\nno comparable cells")
    if warned:
        # Repeat after the table so the flag cannot scroll out of view.
        print_comparability_warnings(old_meta, new_meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
