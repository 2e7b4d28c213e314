#!/usr/bin/env python3
"""Fold sections from one bench JSON into another (baseline refresh helper).

Usage:
    tools/bench_merge.py BASE.json EXTRA.json [-o OUT.json]

The committed BENCH_kernels.json baseline is produced by four binaries:
bench_micro_kernels writes the kernel sections (results[], the
per-SIMD-backend backends[] series and the container checksums[] series),
bench_multi_client writes concurrency[], bench_block_cache writes the
decoded-block cache[] series, and bench_lincomb_batch writes the batched
expression-evaluation batch[] series.  All of them write raw rows only
(bench/bench_util.hpp); ratios are printed by the binaries, never stored.
This script folds every non-empty top-level list section of EXTRA into BASE —
entries whose identity (name/kind/impl/shape/mode/clients) matches an
existing one replace it, new identities append — and writes the merged file
(in place by default), so refreshing the baseline is:

    ./build/bench_micro_kernels  BENCH_kernels.json
    ./build/bench_multi_client   BENCH_multi.json
    ./build/bench_block_cache    BENCH_cache.json
    ./build/bench_lincomb_batch  BENCH_batch.json
    tools/bench_merge.py BENCH_kernels.json BENCH_multi.json
    tools/bench_merge.py BENCH_kernels.json BENCH_cache.json
    tools/bench_merge.py BENCH_kernels.json BENCH_batch.json

(run bench_multi_client once per configuration you want recorded — e.g. the
full-size run and the CI --smoke shape — merging after each.)

Sections and identities are both derived generically, so a binary that emits
a brand-new top-level section (batch[] was the first to arrive this way)
merges without this script learning its name: an entry's identity is every
non-float value it carries (name/kind/impl/shape/mode/clients/... — config is
strings and ints), and its floats are the measurements a refresh replaces.
Non-dict entries (the notes[] strings) are their own identity, so re-merging
never duplicates them.
"""

import argparse
import json
import sys


def identity(entry):
    """The config tuple that identifies ``entry`` within its section.

    Measurements are floats (seconds, rates, ratios); configuration is
    strings, ints, and bools.  Deriving the split from the value types keeps
    the merge correct for sections this script has never heard of.  Config
    ints that merely restate the shape (elements_per_call) are constant per
    identity, so including them is harmless.
    """
    if not isinstance(entry, dict):
        return ("__scalar__", entry)
    return tuple(sorted(
        (k, v) for k, v in entry.items() if not isinstance(v, float)))


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "pyblaz-bench-kernels-v1":
        sys.exit(f"{path}: unexpected schema {data.get('schema')!r}")
    return data


def merge_section(base_entries, extra_entries):
    replacements = {identity(e): e for e in extra_entries}
    merged, seen = [], set()
    for entry in base_entries:
        key = identity(entry)
        merged.append(replacements.get(key, entry))
        seen.add(key)
    merged.extend(e for e in extra_entries if identity(e) not in seen)
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("extra")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: overwrite BASE)")
    args = parser.parse_args()

    base = load(args.base)
    extra = load(args.extra)

    merged_sections = []
    for key, value in extra.items():
        if key == "schema" or not isinstance(value, list) or not value:
            continue
        base[key] = merge_section(base.get(key, []), value)
        merged_sections.append(key)
    if not merged_sections:
        sys.exit(f"{args.extra}: no non-empty list sections to merge")

    out_path = args.output or args.base
    with open(out_path, "w") as f:
        json.dump(base, f, indent=1)
        f.write("\n")
    print(f"merged {', '.join(merged_sections)} from {args.extra} "
          f"into {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
