#!/usr/bin/env python3
"""Perf ratchet: compare a fresh `tensortee bench --json` run against the
committed BENCH_<rev>.json baseline.

Usage: bench_ratchet.py BASELINE FRESH [--tolerance 0.25]

Policy (documented in EXPERIMENTS.md, "Perf trajectory"):

* the two files must share the schema tag and the measurement profile
  (fast/full) — otherwise the comparison is meaningless and the ratchet
  fails;
* every artifact, sweep and kernel present in the baseline must be
  present in the fresh run (an entry disappearing is a regression in
  coverage); kernels are keyed on ``(layer, kernel)``;
* a fresh median above ``baseline * (1 + tolerance) + slack_ms`` fails
  the ratchet (default: +25% and 5 ms). The absolute slack term keeps
  sub-millisecond artifacts — whose medians are mostly timer jitter —
  from tripping the relative band;
* entries only in the fresh run (new artifacts) pass — they enter the
  ratchet when the baseline is next refreshed;
* a fresh median below ``baseline * (1 - tolerance) - slack_ms`` is
  reported as a hint to re-baseline (lock in the win), but passes.

Exit status: 0 = within the band, 1 = regression (or incomparable files).
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "artifacts" not in doc or "sweeps" not in doc:
        sys.exit(f"{path}: not a tensortee bench trajectory")
    return doc


def compare(kind, key, base_entries, fresh_entries, tolerance, slack_ms):
    """Yields (failure, message) per baseline entry of one section, comparing
    ``median_ms``; ``key`` maps an entry to its display name."""
    fresh_by_key = {key(e): e for e in fresh_entries}
    for entry in base_entries:
        name = key(entry)
        fresh = fresh_by_key.get(name)
        if fresh is None:
            yield True, f"{kind} {name}: missing from the fresh run"
            continue
        base_v, fresh_v = entry["median_ms"], fresh["median_ms"]
        delta = (fresh_v / base_v - 1.0) * 100 if base_v > 0.0 else float("inf")
        line = f"{kind} {name}: {base_v:.2f} -> {fresh_v:.2f} ms ({delta:+.0f}%)"
        if fresh_v > base_v * (1.0 + tolerance) + slack_ms:
            yield True, f"REGRESSION {line}"
        elif fresh_v < base_v * (1.0 - tolerance) - slack_ms:
            yield False, f"improved   {line} — consider re-baselining"
        else:
            yield False, f"ok         {line}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_<rev>.json")
    parser.add_argument("fresh", help="output of `tensortee bench --json`")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--slack-ms",
        type=float,
        default=5.0,
        help="absolute slowdown always tolerated, in ms (default 5.0; "
        "keeps sub-ms timer jitter out of the relative band)",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    for field in ("schema", "profile"):
        if base.get(field) != fresh.get(field):
            failures.append(
                f"{field} mismatch: baseline {base.get(field)!r} vs fresh "
                f"{fresh.get(field)!r} — runs are not comparable"
            )
    if not failures:
        sections = [
            ("artifact", lambda e: e["id"], "artifacts"),
            ("sweep", lambda e: e["scenario"], "sweeps"),
            ("kernel", lambda e: f"{e['layer']}/{e['kernel']}", "kernels"),
        ]
        checks = [
            check
            for kind, key, section in sections
            for check in compare(
                kind, key, base[section], fresh[section], args.tolerance, args.slack_ms
            )
        ]
        for failed, message in checks:
            print(message)
            if failed:
                failures.append(message)

    print()
    if failures:
        print(f"ratchet FAILED ({len(failures)} issue(s); tolerance +{args.tolerance:.0%}):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"ratchet OK: {len(base['artifacts'])} artifacts + {len(base['sweeps'])} sweeps "
        f"+ {len(base['kernels'])} kernels within +{args.tolerance:.0%} of {base.get('rev', '?')}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
