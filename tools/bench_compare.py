#!/usr/bin/env python3
"""Compare two bench JSON files entry by entry; gate on kernel regressions.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Every list section the candidate carries is compared the same way: entries
are matched on their identity (bench_merge.identity: every non-float field,
i.e. the configuration) and each float measurement prints as baseline,
candidate, and candidate over baseline.  Baseline entries the candidate lacks
and candidate entries the baseline lacks are listed.

Only results[] gates, and only when the candidate has a results key: the
script exits 1 if a baseline results[] entry is missing from the candidate or
its seconds_per_call is more than --threshold above the baseline.  Every
other section is informational: its timings depend too much on the host to
gate, and each bench binary prints and warns on its own ratios.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_merge import identity, load  # noqa: E402

GATED = "results"


def label(entry):
    """The entry's configuration as one line, in the order it was written."""
    parts = []
    for key, value in entry.items():
        if isinstance(value, str):
            if value:
                parts.append(value)
        elif not isinstance(value, float):
            parts.append(f"{key}={value}")
    return " ".join(parts)


def compare(section, base_entries, cand_entries, threshold):
    """Print one section side by side; return the gating failures."""
    base = {identity(e): e for e in base_entries if isinstance(e, dict)}
    cand = {identity(e): e for e in cand_entries if isinstance(e, dict)}
    failures = []
    print(f"\n== {section}[] ==")
    print(f"{'entry':<60} {'field':<20} {'baseline':>11} "
          f"{'candidate':>11} {'ratio':>8}")
    for key, b in base.items():
        name = label(b)
        c = cand.get(key)
        if c is None:
            print(f"{name:<60} (missing in candidate)")
            if section == GATED:
                failures.append(f"{name}: missing in candidate")
            continue
        for field, bv in b.items():
            cv = c.get(field)
            if not isinstance(bv, float) or not isinstance(cv, float):
                continue
            ratio = cv / bv if bv else float("inf")
            flag = ""
            if (section == GATED and field == "seconds_per_call"
                    and ratio > 1.0 + threshold):
                flag = "  <-- REGRESSION"
                failures.append(f"{name}: {ratio:.2f}x slower")
            print(f"{name:<60} {field:<20} {bv:>11.4g} {cv:>11.4g} "
                  f"{ratio:>7.2f}x{flag}")
    for key, c in cand.items():
        if key not in base:
            print(f"{label(c):<60} (new in candidate)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="fractional results[] slowdown that counts as a regression "
        "(default 0.10)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    failures = []
    for section, entries in candidate.items():
        if isinstance(entries, list):
            failures += compare(section, baseline.get(section, []), entries,
                                args.threshold)

    if failures:
        print(f"\n{len(failures)} {GATED}[] failure(s) at threshold "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if GATED in candidate:
        print(f"\nno {GATED}[] regressions above {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
