#!/usr/bin/env python3
"""Compare a bench result file against its checked-in baseline.

Both files are JSON arrays of rows, one per configuration:
{"config": name, field: value, ...}. Every field must be equal on both
sides, in both directions: a configuration or a field present on only one
side fails, and so does any differing value. The one exception is host
fields -- wall clock (named *_ns) and resident memory (named *_kb) -- which
are displayed but never compared.

Usage:
  bench_compare.py BASELINE.json CURRENT.json

Exit status: 0 when the files match, 1 on any difference, 2 when a file
cannot be read or is not an array of rows with unique configs.
"""

import json
import sys


def load(path):
    with open(path) as f:
        rows = json.load(f)
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and "config" in r for r in rows):
        raise ValueError(f"{path}: expected a JSON array of rows with "
                         f"a 'config' field")
    by_config = {r["config"]: r for r in rows}
    if len(by_config) != len(rows):
        raise ValueError(f"{path}: duplicate config names")
    return by_config


def is_host_field(field):
    return field.endswith("_ns") or field.endswith("_kb")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base = load(sys.argv[1])
        cur = load(sys.argv[2])
    except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2

    diffs = []
    for config in sorted(base.keys() | cur.keys()):
        if config not in cur:
            diffs.append(f"{config}: missing from {sys.argv[2]}")
            continue
        if config not in base:
            diffs.append(f"{config}: not in baseline {sys.argv[1]}")
            continue
        b, c = base[config], cur[config]
        host = []
        for field in sorted(b.keys() | c.keys()):
            if field not in c or field not in b:
                side = sys.argv[2] if field not in c else "baseline"
                diffs.append(f"{config}: field '{field}' missing from {side}")
            elif is_host_field(field):
                host.append(f"{field} {b[field]} -> {c[field]}")
            elif b[field] != c[field]:
                diffs.append(f"{config}: {field} {b[field]} -> {c[field]}")
        print(f"{config:<20} " + ("; ".join(host) if host else "exact"))

    if diffs:
        print(f"\nFAIL: {len(diffs)} difference(s) from the baseline:")
        for d in diffs:
            print(f"  {d}")
        return 1
    print("\nall gated fields match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
