#!/usr/bin/env python3
"""Assert the engine-equivalence invariants of a BENCH_*.json artifact.

The bench harnesses record ``identical_iterations`` wherever two execution
engines solved the same problem (the engines are bitwise equivalent, so
any mismatch is a correctness bug, not noise); the solve-server bench
records the stronger ``identical_results`` (bitwise-equal solution fields
between batched and solo solves).  The old CI check was
``! grep -q '"identical_iterations": false'`` — which passes vacuously
when the key is missing or the file is empty.  This script fails on BOTH:
every solver entry must carry at least one equivalence flag (directly or
in a nested object) and every flag must be true.  A tile-size scan must
also record ``host_auto_tile_rows`` (the height ``auto`` resolves to on
the host that ran it) and time every solver at that height.  Every file
must record ``vector_isa``, the kernel copy the run used ("avx2" or
"baseline"): times from different copies do not compare.

Usage: check_bench_smoke.py BENCH_PR2.json [BENCH_PR3.json ...]
"""

import json
import sys


def collect_flags(node, out):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("identical_iterations", "identical_results"):
                out.append(value)
            else:
                collect_flags(value, out)
    elif isinstance(node, list):
        for item in node:
            collect_flags(item, out)


def check(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("vector_isa") not in ("avx2", "baseline"):
        raise SystemExit(
            f"{path}: no vector_isa (\"avx2\" or \"baseline\") — the "
            f"kernel copy that ran is unrecorded"
        )
    solvers = doc.get("solvers")
    if not isinstance(solvers, list) or not solvers:
        raise SystemExit(f"{path}: no 'solvers' array — nothing was benched")
    for entry in solvers:
        name = entry.get("solver", "<unnamed>")
        flags = []
        collect_flags(entry, flags)
        if not flags:
            raise SystemExit(
                f"{path}: solver '{name}' carries no equivalence flag — "
                f"the check would pass vacuously"
            )
        if not all(flag is True for flag in flags):
            raise SystemExit(
                f"{path}: solver '{name}' produced differing results "
                f"across engines — the engines must be bitwise equivalent"
            )
    if "tile-size scan" in str(doc.get("benchmark", "")):
        check_host_rung(path, doc, solvers)
    print(f"{path}: {len(solvers)} solvers, all engine pairs identical")


def check_host_rung(path, doc, solvers):
    rows = doc.get("host_auto_tile_rows")
    if not isinstance(rows, int) or isinstance(rows, bool) or rows < 1:
        raise SystemExit(
            f"{path}: no host_auto_tile_rows — the scan must record the "
            f"height `auto` runs at on its host"
        )
    for entry in solvers:
        heights = [t.get("tile_rows") for t in entry.get("tiles", [])]
        if rows not in heights:
            raise SystemExit(
                f"{path}: solver '{entry.get('solver', '<unnamed>')}' has "
                f"no rung at the host's auto height {rows}"
            )


def main():
    if len(sys.argv) < 2:
        raise SystemExit("usage: check_bench_smoke.py BENCH.json [...]")
    for path in sys.argv[1:]:
        check(path)


if __name__ == "__main__":
    main()
