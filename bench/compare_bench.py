#!/usr/bin/env python3
"""Bench regression gate: diff a fresh BENCH_*.json against its committed
baseline and fail on per-cell-iteration slowdowns.

The bench harnesses (bench/bench_kernels.cpp) emit absolute seconds for
fixed-iteration solves; meshes and iteration counts may drift between the
baseline and a fresh smoke run, so the gate normalises every timing to
seconds per cell*iteration before comparing.  A fresh metric more than
``tolerance`` (default 25%, sized to absorb shared-runner noise) above its
baseline fails the gate; faster-than-baseline is always fine.

Usage:
  compare_bench.py --baseline BENCH_PR2.json --fresh build/BENCH_PR2.json
                   [--tolerance 0.25] [--inject-slowdown 2.0]

Override knob: --tolerance, or the BENCH_GATE_TOLERANCE environment
variable (the CI workflow forwards it, so a noisy-runner episode can be
absorbed without editing the workflow).  --inject-slowdown multiplies the
fresh metrics by a factor; CI uses it as a self-test that the gate really
trips on a 2x slowdown.

Exit status: 0 = within tolerance, 1 = regression (or malformed input /
no comparable metrics, so the gate can never pass vacuously).
"""

import argparse
import json
import os
import sys


def fail(msg):
    print(f"compare_bench: FAIL: {msg}")
    sys.exit(1)


def per_cell_iter(seconds, cells, iters):
    if cells <= 0 or iters <= 0:
        return None
    return seconds / (cells * iters)


def extract_pr2(doc):
    """execution-engine timing: mesh^2 cells, per-solver iters."""
    cells = doc["mesh"] ** 2
    metrics = {}
    for entry in doc["solvers"]:
        m = per_cell_iter(entry["fused_seconds"], cells, entry["fused_iters"])
        if m is not None:
            metrics[f"{entry['solver']}/fused"] = m
    return metrics


def extract_pr3(doc):
    """tile-size scan: mesh^2 cells, one iters per solver."""
    cells = doc["mesh"] ** 2
    metrics = {}
    for entry in doc["solvers"]:
        name = entry["solver"]
        iters = entry["iters"]
        for kind, key in (
            ("fused", "fused_untiled_seconds"),
            ("best-tiled", "best_tiled_seconds"),
        ):
            m = per_cell_iter(entry[key], cells, iters)
            if m is not None:
                metrics[f"{name}/{kind}"] = m
    return metrics


def extract_pr4(doc):
    """2-D vs 3-D comparison: per-geometry cells/iters in each entry."""
    metrics = {}
    for entry in doc["solvers"]:
        name = entry["solver"]
        for dims in ("2d", "3d"):
            d = entry[dims]
            cells = d["cells"]
            iters = d["iters"]
            for kind, key in (
                ("fused", "fused_seconds"),
                ("tiled", "tiled_seconds"),
            ):
                if key not in d:
                    continue  # mg-pcg has no row tiling
                m = per_cell_iter(d[key], cells, iters)
                if m is not None:
                    metrics[f"{name}/{dims}/{kind}"] = m
    return metrics


def extract_pr6(doc):
    """solve-server batching: mesh^2 cells x iters x requests per stream."""
    cells = doc["mesh"] ** 2
    requests = doc["requests"]
    metrics = {}
    for entry in doc["solvers"]:
        name = entry["solver"]
        iters = entry["iters"] * requests
        for kind, key in (
            ("solo", "solo_seconds"),
            ("batched", "batched_seconds"),
        ):
            m = per_cell_iter(entry[key], cells, iters)
            if m is not None:
                metrics[f"{name}/{kind}"] = m
    return metrics


def extract_pr7(doc):
    """assembled operators: per-entry cells/iters; one series per view."""
    metrics = {}
    for entry in doc["solvers"]:
        name = entry["solver"]
        cells = entry["cells"]
        iters = entry["iters"]
        for kind, key in (
            ("stencil", "stencil_seconds"),
            ("csr", "csr_seconds"),
        ):
            m = per_cell_iter(entry[key], cells, iters)
            if m is not None:
                metrics[f"{name}/{kind}"] = m
    return metrics


def extract_pr9(doc):
    """mixed-precision layer: fixed-iteration fp64/fp32 series on mesh^2
    cells, plus the convergent mixed and fp64 riders on conv_mesh^2."""
    cells = doc["mesh"] ** 2
    conv_cells = doc["conv_mesh"] ** 2
    metrics = {}
    for entry in doc["solvers"]:
        name = entry["solver"]
        iters = entry["iters"]
        for kind, key in (("fp64", "fp64_seconds"), ("fp32", "fp32_seconds")):
            m = per_cell_iter(entry[key], cells, iters)
            if m is not None:
                metrics[f"{name}/{kind}"] = m
        for kind, secs_key, iters_key in (
            ("mixed", "mixed_seconds", "mixed_iters"),
            ("fp64-conv", "fp64_conv_seconds", "fp64_conv_iters"),
        ):
            m = per_cell_iter(entry[secs_key], conv_cells, entry[iters_key])
            if m is not None:
                metrics[f"{name}/{kind}"] = m
    return metrics


EXTRACTORS = (
    ("execution engine (PR2)", extract_pr2),
    ("tile-size scan", extract_pr3),
    ("2-D vs 3-D", extract_pr4),
    ("solve-server", extract_pr6),
    ("assembled operators", extract_pr7),
    ("mixed-precision execution layer", extract_pr9),
)


def extract(doc, path):
    kind = doc.get("benchmark")
    if not isinstance(kind, str):
        fail(f"{path}: missing 'benchmark' identifier")
    for tag, fn in EXTRACTORS:
        if tag in kind:
            try:
                metrics = fn(doc)
            except KeyError as e:
                fail(f"{path}: schema key missing: {e}")
            if not metrics:
                fail(f"{path}: no timed series found")
            return metrics
    fail(f"{path}: unrecognised benchmark '{kind}'")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def warn_config_drift(base, fresh):
    # reps matters too: both sides record best-of-reps, and best-of-3 is
    # stochastically slower than best-of-10 on the same machine.
    for key in (
        "mesh",
        "mesh_2d",
        "mesh_3d",
        "conv_mesh",
        "ranks",
        "threads",
        "reps",
        "vector_isa",
    ):
        if key in base and key in fresh and base[key] != fresh[key]:
            print(
                f"compare_bench: note: {key} differs "
                f"(baseline {base[key]}, fresh {fresh[key]}); comparing "
                f"per cell*iteration"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_GATE_TOLERANCE", "0.25")),
        help="allowed fractional slowdown (default 0.25 or "
        "$BENCH_GATE_TOLERANCE)",
    )
    ap.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        help="multiply fresh metrics by this factor (gate self-test)",
    )
    args = ap.parse_args()
    if args.tolerance < 0.0:
        fail("tolerance must be non-negative")

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)
    warn_config_drift(base_doc, fresh_doc)
    base = extract(base_doc, args.baseline)
    fresh = extract(fresh_doc, args.fresh)

    common = sorted(set(base) & set(fresh))
    if not common:
        fail("no comparable series between baseline and fresh run")

    regressions = []
    width = max(len(name) for name in common)
    print(
        f"compare_bench: {args.baseline} vs {args.fresh} "
        f"({len(common)} series, tolerance {args.tolerance:.0%})"
    )
    for name in common:
        b = base[name]
        f = fresh[name] * args.inject_slowdown
        ratio = f / b if b > 0.0 else float("inf")
        flag = "REGRESSION" if ratio > 1.0 + args.tolerance else "ok"
        print(
            f"  {name:<{width}}  base {b:.3e}  fresh {f:.3e}  "
            f"ratio {ratio:5.2f}  {flag}"
        )
        if flag != "ok":
            regressions.append((name, ratio))

    dropped = sorted(set(base) - set(fresh))
    if dropped:
        # A series vanishing from the fresh run must not pass silently —
        # that is how a perf gate rots.
        fail(f"series missing from the fresh run: {', '.join(dropped)}")

    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        fail(
            f"{len(regressions)} series regressed; worst {worst[0]} at "
            f"{worst[1]:.2f}x baseline"
        )
    print("compare_bench: PASS")


if __name__ == "__main__":
    main()
