#!/usr/bin/env python3
"""Assert a design-space sweep smoke produced the rows CI relies on.

Replaces the inline ``python3 - <<EOF`` heredoc the bench-smoke job used
to carry: runnable locally against any sweep JSON, and every assertion
fails loudly on MISSING keys instead of passing vacuously.

Checks:
  * every requested solver contributes >= 1 converged, unskipped row in
    every requested geometry;
  * the ranking is non-empty and covers every requested geometry;
  * no cell of the sweep is skipped (the smoke configurations avoid the
    legitimately-invalid combinations, so any skip — e.g. a resurrected
    "mg-pcg x 3d" hole — is a regression).  Pass --allow-skips if the
    swept axes intentionally include invalid cells;
  * with --same-across COLS: cells that differ only in the listed config
    columns (e.g. tile_rows,threads — schedule axes) agree exactly on
    every result column below.  Cells group by every other config
    column; each group needs two or more cells.  The JSON writes doubles
    with 17 significant digits, so equal values are equal bits.

Usage:
  check_sweep_smoke.py sweep3d.json \
      --solvers jacobi,cg,chebyshev,ppcg,mg-pcg --geometries 2d,3d
  check_sweep_smoke.py sweepblock.json --solvers cg,chebyshev,ppcg \
      --same-across tile_rows,threads
"""

import argparse
import json
import sys


CONFIG_COLUMNS = (
    "solver",
    "precon",
    "halo_depth",
    "mesh",
    "threads",
    "tile_rows",
    "geometry",
    "operator",
    "precision",
)
RESULT_COLUMNS = (
    "converged",
    "iterations",
    "inner_steps",
    "spmv",
    "reductions",
    "exchanges",
    "messages",
    "message_bytes",
    "final_norm",
)


def fail(msg):
    print(f"check_sweep_smoke: FAIL: {msg}")
    sys.exit(1)


def check_same_across(cells, varied):
    """Cells equal in every config column but `varied` agree exactly."""
    unknown = [v for v in varied if v not in CONFIG_COLUMNS]
    if unknown:
        fail(f"--same-across names unknown config columns {unknown}")
    key_cols = [c for c in CONFIG_COLUMNS if c not in varied]
    groups = {}
    for i, c in enumerate(cells):
        if c["skipped"]:
            continue
        missing = [k for k in key_cols + list(RESULT_COLUMNS) if k not in c]
        if missing:
            fail(f"cell {i} lacks {missing}")
        groups.setdefault(tuple(c[k] for k in key_cols), []).append(i)
    mismatches = []
    for key, members in groups.items():
        label = "/".join(str(k) for k in key)
        if len(members) < 2:
            fail(f"group {label} has one cell: nothing to compare")
        ref = cells[members[0]]
        for i in members[1:]:
            for col in RESULT_COLUMNS:
                if cells[i][col] != ref[col]:
                    mismatches.append(
                        f"{label} cell {i} {col}={cells[i][col]!r} "
                        f"vs cell {members[0]} {ref[col]!r}"
                    )
    if mismatches:
        fail(
            f"{len(mismatches)} results differ across {','.join(varied)}: "
            + "; ".join(mismatches[:10])
        )
    print(
        f"{len(groups)} groups agree across {','.join(varied)} "
        f"({sum(len(m) for m in groups.values())} cells)"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_path")
    ap.add_argument("--solvers", required=True)
    ap.add_argument("--geometries", default="2d,3d")
    ap.add_argument(
        "--allow-skips",
        action="store_true",
        help="tolerate skipped cells (swept axes include invalid combos)",
    )
    ap.add_argument(
        "--same-across",
        default="",
        help="comma-separated config columns whose values must not change "
        "any result (e.g. tile_rows,threads)",
    )
    args = ap.parse_args()
    solvers = [s for s in args.solvers.split(",") if s]
    geometries = [g for g in args.geometries.split(",") if g]

    try:
        with open(args.json_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.json_path}: {e}")

    cells = doc.get("cells")
    ranking = doc.get("ranking")
    if not isinstance(cells, list) or not cells:
        fail("document has no 'cells' array")
    if not isinstance(ranking, list) or not ranking:
        fail("document has no (non-empty) 'ranking' array")

    for required in ("solver", "geometry", "converged", "skipped"):
        missing = [i for i, c in enumerate(cells) if required not in c]
        if missing:
            fail(f"cells {missing[:5]} lack the '{required}' key")

    skipped = [c for c in cells if c["skipped"]]
    if skipped and not args.allow_skips:
        reasons = {c.get("skip_reason", "<no reason>") for c in skipped}
        fail(
            f"{len(skipped)} skipped cells (expected none): "
            + "; ".join(sorted(reasons))
        )

    for solver in solvers:
        for geometry in geometries:
            rows = [
                c
                for c in cells
                if c["solver"] == solver
                and c["geometry"] == geometry
                and c["converged"]
                and not c["skipped"]
            ]
            if not rows:
                fail(f"no converged {geometry} row for solver '{solver}'")

    ranked_geometries = {cells[i]["geometry"] for i in ranking}
    for geometry in geometries:
        if geometry not in ranked_geometries:
            fail(f"ranking contains no {geometry} row")

    varied = [v for v in args.same_across.split(",") if v]
    if varied:
        check_same_across(cells, varied)

    converged = [c for c in cells if c["converged"] and not c["skipped"]]
    print(
        f"{args.json_path}: {len(converged)}/{len(cells)} cells converged "
        f"over solvers {sorted({c['solver'] for c in converged})} and "
        f"geometries {sorted(ranked_geometries)}"
    )


if __name__ == "__main__":
    main()
