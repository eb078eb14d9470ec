#!/usr/bin/env python3
"""End-to-end benchmark of TeaLeaf: build, generate inputs, run, check.

Usage (from the repository root):

  python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                           [--trace [0|1]] [--results-dir DIR] [--repeat K]
  python3 bench/e2e/run.py --self-test

Without --workload every workload runs, one process each.  The seed
generates every input (deck text, request stream) before the program
starts.  Each run prints `<metric> <workload> <value> <unit>` lines and,
at the end, one JSON object as the last line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Its counts sum over every run made; each metric is the median over the
--repeat runs, keyed `<metric>.<workload>` when several workloads ran.
An untraced run (--trace 0, the default) reports the end-to-end metrics;
a traced run (--trace 1) the per-layer metrics, computed from spans the
tealeaf_e2e writes as JSON lines next to the run's inputs.  Every run also
writes a results file (with a build and host header) to --results-dir,
default build/e2e/results; compare.py compares two such directories.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build" / "e2e"
ROUTES = HERE / "server_routes.json"
PROGRAM_TIMEOUT_S = 165

# ---------------------------------------------------------------------------
# Metrics.  End-to-end metrics are what a caller waits for; every workload
# reports every one (a "unit of work" is one implicit timestep on the
# timestep workloads and one request on server_mix).  `bound` is the share
# of the parent's median by which a metric may worsen before compare.py
# calls it a regression.
# ---------------------------------------------------------------------------

E2E_METRICS = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

# name, unit, better, layer, end-to-end metric (and workload) it should move
LAYER_METRICS = [
    ("driver.deck_parse_s", "s", "lower", "driver", "setup_s on the timestep workloads"),
    ("io.routes_load_s", "s", "lower", "io", "setup_s on server_mix"),
    ("api.session_ctor_s", "s", "lower", "api", "setup_s, mostly heat3d_default"),
    ("api.prepare_s", "s", "lower", "api", "latency_p50_s, mostly pipe_mixed_csr"),
    ("api.finish_s", "s", "lower", "api", "latency_p50_s"),
    ("solvers.run_s", "s", "lower", "solvers", "latency_p50_s, every workload"),
    ("solvers.outer_iters", "count", "lower", "solvers", "latency_p50_s"),
    ("solvers.inner_steps", "count", "lower", "solvers", "latency_p50_s on pipe_ppcg"),
    ("solvers.spmv_applies", "count", "lower", "solvers", "latency_p50_s"),
    ("solvers.eigen_cg_iters", "count", "lower", "solvers", "latency_p50_s on pipe_ppcg"),
    ("solvers.refine_steps", "count", "lower", "solvers", "latency_p50_s on pipe_mixed_csr"),
    ("solvers.ns_per_cell_apply", "ns", "lower", "solvers", "latency_p50_s, comparable across workloads"),
    ("solvers.unattributed_share", "ratio", "lower", "solvers", "latency_p50_s on heat3d_default"),
    ("ops.apply_s", "s", "lower", "ops", "latency_p50_s on pipe_ppcg and heat3d_default"),
    ("ops.apply_bytes", "bytes", "lower", "ops", "latency_p50_s (computed bytes)"),
    ("ops.apply_gbs", "GB/s", "higher", "ops", "latency_p50_s on pipe_ppcg and heat3d_default"),
    ("ops.apply_roofline_frac", "ratio", "higher", "ops", "latency_p50_s on heat3d_default"),
    ("ops.apply_share", "ratio", "lower", "ops", "latency_p50_s"),
    ("comm.exchange_calls", "count", "lower", "comm", "latency_p50_s on pipe_ppcg"),
    ("comm.messages", "count", "lower", "comm", "latency_p50_s on pipe_ppcg"),
    ("comm.message_bytes", "bytes", "lower", "comm", "latency_p50_s on pipe_ppcg"),
    ("comm.reductions", "count", "lower", "comm", "latency_p50_s on heat3d_default and pipe_mixed_csr"),
    ("comm.exchange_s", "s", "lower", "comm", "latency_p50_s on pipe_ppcg"),
    ("comm.exchange_share", "ratio", "lower", "comm", "latency_p50_s on pipe_ppcg"),
    ("comm.reduce_s", "s", "lower", "comm", "latency_p50_s on heat3d_default and pipe_mixed_csr"),
    ("comm.reduce_share", "ratio", "lower", "comm", "latency_p50_s on heat3d_default and pipe_mixed_csr"),
    ("util.region_s", "s", "lower", "util", "latency_p50_s on server_mix and heat3d_default"),
    ("util.barrier_s", "s", "lower", "util", "latency_p50_s on server_mix"),
    ("mesh.field_mb", "MB", "lower", "mesh", "peak_rss_mb, every workload"),
    ("server.route_s", "s", "lower", "server", "latency_p50_s and setup_s on server_mix"),
    ("server.batch_size_mean", "count", "higher", "server", "throughput_per_s on server_mix"),
    ("server.batched_frac", "ratio", "higher", "server", "throughput_per_s on server_mix"),
    ("server.cache_hit_frac", "ratio", "higher", "server", "latency_p50_s on server_mix"),
    ("server.busy_frac", "ratio", "lower", "server", "latency_p50_s on server_mix"),
    ("server.queue_wait_frac", "ratio", "lower", "server", "latency_p50_s on server_mix"),
    ("server.reroutes", "count", "lower", "server", "latency_p50_s on server_mix"),
    ("server.failures", "count", "lower", "server", "none while every request converges"),
    ("host.triad_gbs", "GB/s", "higher", "host", "none: the roofline for ops.apply_roofline_frac"),
    ("bench.trace_overhead", "ratio", "lower", "bench", "none: share of the traced pass spent recording spans"),
]

# Spans whose median self time is a per-layer metric.
SPAN_METRICS = {
    "driver.parse": "driver.deck_parse_s",
    "api.session_ctor": "api.session_ctor_s",
    "api.prepare": "api.prepare_s",
    "solvers.run_solver": "solvers.run_s",
    "api.finish_solve": "api.finish_s",
}

# ---------------------------------------------------------------------------
# Workloads.  `step_s` is the measured seconds of one step on the reference
# host (4 cores, 3 threads); the step count of a run is derived from
# --seconds with it, so a run's work depends only on --seconds and is the
# same on every commit being compared.
# ---------------------------------------------------------------------------

WORKLOADS = {
    "pipe_ppcg": dict(kind="timestep", ranks=6, step_s=3.3),
    "heat3d_default": dict(kind="timestep", ranks=2, step_s=2.7),
    "pipe_mixed_csr": dict(kind="timestep", ranks=6, step_s=2.9),
    "server_mix": dict(kind="server", ranks=2),
}
# Set-ups timed per untraced run; setup_s is their median.  One set-up
# takes 10 to 200 ms, so they add at most about 2 s to a run.
SETUPS = 11

# ---------------------------------------------------------------------------
# Input generation (all randomness comes from --seed, here).
# ---------------------------------------------------------------------------

PIPE_SEGMENTS = [(0, 3, 7, 8), (2, 3, 2, 8), (2, 8, 2, 3), (7, 8, 2, 6), (7, 10, 5, 6)]


def deck_text(head, solver, states):
    lines = ["*tea"] + head + solver
    for i, st in enumerate(states, 1):
        lines.append(f"state {i} " + st)
    lines.append("*endtea")
    return "\n".join(lines) + "\n"


def crooked_pipe(n, steps, source_energy, solver):
    """The paper's crooked pipe (section V-B): dense background, a
    low-density high-conduction pipe, a hot source at its inlet."""
    head = [f"x_cells={n}", f"y_cells={n}", "xmin=0", "xmax=10", "ymin=0",
            "ymax=10", "initial_timestep=0.04", f"end_step={steps}",
            "tl_coefficient=conductivity"]
    states = ["density=100 energy=0.0001"]
    for x0, x1, y0, y1 in PIPE_SEGMENTS:
        states.append(f"density=0.1 energy=0.0001 geometry=rectangle "
                      f"xmin={x0} xmax={x1} ymin={y0} ymax={y1}")
    states.append(f"density=0.1 energy={source_energy!r} geometry=rectangle "
                  f"xmin=0 xmax=1 ymin=7 ymax=8")
    return deck_text(head, solver, states)


def hot_block_3d(n, steps, x0, y0):
    """A 2x2 hot block in a cold uniform medium, extruded through z."""
    head = ["tl_geometry=3d", f"x_cells={n}", f"y_cells={n}", f"z_cells={n}",
            "xmin=0", "xmax=10", "ymin=0", "ymax=10", "zmin=0", "zmax=10",
            "initial_timestep=0.04", f"end_step={steps}",
            "tl_coefficient=conductivity"]
    solver = ["tl_use_cg", "tl_eps=1e-10", "tl_max_iters=10000"]
    states = ["density=1 energy=0.01",
              f"density=1 energy=10 geometry=rectangle xmin={x0!r} "
              f"xmax={x0 + 2!r} ymin={y0!r} ymax={y0 + 2!r}"]
    return deck_text(head, solver, states)


def layered_material(n, inclusion_energy, solver):
    """Two density bands and a hot circular inclusion (one step)."""
    head = [f"x_cells={n}", f"y_cells={n}", "xmin=0", "xmax=10", "ymin=0",
            "ymax=10", "initial_timestep=0.1", "end_step=1",
            "tl_coefficient=conductivity"]
    states = ["density=5 energy=0.1",
              "density=1 energy=0.1 geometry=rectangle xmin=0 xmax=10 ymin=0 ymax=3",
              "density=10 energy=0.1 geometry=rectangle xmin=0 xmax=10 ymin=6.5 ymax=10",
              f"density=0.5 energy={inclusion_energy!r} geometry=circle "
              f"xcentre=5 ycentre=5 radius=1.5"]
    return deck_text(head, solver, states)


PIPE_PPCG_SOLVER = ["tl_use_ppcg", "tl_eps=1e-10", "tl_max_iters=20000",
                    "tl_halo_depth=4", "tl_fuse_kernels", "tl_tile_rows=auto"]
PIPE_MIXED_SOLVER = ["tl_use_cg", "tl_eps=1e-10", "tl_max_iters=20000",
                     "tl_precision=mixed", "tl_operator=csr",
                     "tl_fuse_kernels", "tl_tile_rows=auto"]

# Server request classes: share of the stream, mesh, override, solver text.
SERVER_CLASSES = [
    ("small", 0.70, 64, False, ["tl_use_cg", "tl_eps=1e-10"]),
    ("large", 0.15, 128, False, ["tl_use_cg", "tl_eps=1e-10"]),
    ("mixed", 0.14, 64, True, ["tl_use_cg", "tl_eps=1e-10", "tl_precision=mixed"]),
    # Stale eigenvalue hints below the spectrum make the polynomial
    # preconditioner indefinite: the solve breaks down and the server
    # must re-route it.
    ("stale", 0.01, 64, True, ["tl_use_ppcg", "tl_eps=1e-10", "tl_ppcg_inner_steps=3"]),
]
STALE_HINTS = (0.1, 0.2)
SERVER_RATES = {"lo": 60.0, "hi": 120.0}
# Share of --seconds given to each open-loop phase, and the bursts that
# follow (requests per second of --seconds, split over SERVER_BURSTS
# drains); sized so a run takes about --seconds on the reference host.
SERVER_PHASE_SHARE = {"lo": 0.45, "hi": 0.25}
SERVER_BURST_PER_S = 30
SERVER_BURSTS = 5
SERVER_WARMUP = ["small"] * 8 + ["large"] * 4 + ["mixed"] * 4


def timestep_steps(workload, seconds):
    return max(2, round(seconds / WORKLOADS[workload]["step_s"]))


def make_timestep_deck(workload, rng, steps):
    if workload == "pipe_ppcg":
        return crooked_pipe(1024, steps, 25.0 * rng.uniform(0.9, 1.1),
                            PIPE_PPCG_SOLVER)
    if workload == "pipe_mixed_csr":
        return crooked_pipe(512, steps, 25.0 * rng.uniform(0.9, 1.1),
                            PIPE_MIXED_SOLVER)
    if workload == "heat3d_default":
        return hot_block_3d(160, steps, rng.uniform(1.0, 7.0),
                            rng.uniform(1.0, 7.0))
    raise ValueError(workload)


def request_record(rid, phase, due, cls, rng):
    name, _, n, override, solver = next(c for c in SERVER_CLASSES if c[0] == cls)
    hints = STALE_HINTS if name == "stale" else (0.0, 0.0)
    deck = layered_material(n, 5.0 * rng.uniform(0.8, 1.2), solver)
    ranks = WORKLOADS["server_mix"]["ranks"]
    return (f"request {rid} {phase} {due!r} {name} {ranks} {int(override)} "
            f"{hints[0]!r} {hints[1]!r}\n" + deck)


def make_request_stream(rng, seconds):
    """Warm-up, two open-loop Poisson phases and the bursts, as stream
    text."""
    classes = [c[0] for c in SERVER_CLASSES]
    weights = [c[1] for c in SERVER_CLASSES]
    out = ["# tealeaf_e2e request stream\n"]
    rid = 0
    for cls in SERVER_WARMUP:
        out.append(request_record(rid, "warm", 0.0, cls, rng))
        rid += 1
    for phase in ("lo", "hi"):
        rate = SERVER_RATES[phase]
        count = round(rate * SERVER_PHASE_SHARE[phase] * seconds)
        due = 0.0
        for _ in range(count):
            due += rng.expovariate(rate)
            cls = rng.choices(classes, weights)[0]
            out.append(request_record(rid, phase, due, cls, rng))
            rid += 1
    per_burst = max(1, round(SERVER_BURST_PER_S * seconds / SERVER_BURSTS))
    for burst in range(SERVER_BURSTS):
        for _ in range(per_burst):
            cls = rng.choices(classes, weights)[0]
            out.append(request_record(rid, "burst", float(burst), cls, rng))
            rid += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Build and host provenance.
# ---------------------------------------------------------------------------


def check_checkout():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: {ROOT} is not a TeaLeaf checkout "
                 "(no CMakeLists.txt or src/); nothing to build")


def build():
    """Configure (once) and build tealeaf_e2e into build/e2e (Release)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "tealeaf_e2e",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.exit(f"run.py: build failed, see {log}")
    return BUILD / "tealeaf_e2e"


def cmake_cache():
    cache = {}
    path = BUILD / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def llc_bytes():
    """Size of the highest cache level, from sysfs."""
    best = (0, 0)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * mult
        best = max(best, (level, value))
    return best[1] or 32 * 1024 ** 2


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def omp_env():
    threads = max(1, min(3, (os.cpu_count() or 1) - 1))
    return {"OMP_NUM_THREADS": str(threads), "OMP_PROC_BIND": "close",
            "OMP_PLACES": "cores"}


def header(workload, seed, seconds, trace, started_at, program_build):
    cache = cmake_cache()
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "started_at": started_at,
        "compiler": program_build.get("compiler", ""),
        "compiler_path": cache.get("CMAKE_CXX_COMPILER", ""),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                  cache.get("CMAKE_CXX_FLAGS_RELEASE", "")).strip(),
        "TEALEAF_HAVE_OPENMP": cache.get("TEALEAF_HAVE_OPENMP", ""),
        "openmp_active": program_build.get("openmp"),
        "threads": program_build.get("threads"),
        "nproc": os.cpu_count(), "omp_env": omp_env(),
        "git_sha": git_sha(), "llc_bytes": llc_bytes(),
    }


# ---------------------------------------------------------------------------
# Spans and per-layer metrics.
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that the union of its children's intervals covers."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted((max(c["start"], lo), min(c["end"], hi))
                           for c in children.get(s["id"], [])):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_metrics(raw, spans):
    """Per-layer metrics from tealeaf_e2e's raw numbers and the spans."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(selfs[s["id"]])
    m = {}
    for span, metric in SPAN_METRICS.items():
        if span not in by_name:
            raise RuntimeError(f"no '{span}' spans in the trace")
        m[metric] = statistics.median(by_name[span])
    for name, *_ in LAYER_METRICS:
        if name in raw:
            m[name] = raw[name]
    run_s = m["solvers.run_s"]
    applies = raw["solvers.spmv_applies"]
    m["solvers.ns_per_cell_apply"] = run_s / (raw["cells"] * applies) * 1e9
    m["ops.apply_gbs"] = raw["ops.apply_bytes"] / raw["ops.apply_s"] / 1e9
    m["ops.apply_roofline_frac"] = m["ops.apply_gbs"] / raw["host.triad_gbs"]
    # Probe-based model: count x unit cost / solver self time.
    m["ops.apply_share"] = applies * raw["ops.apply_s"] / run_s
    m["comm.exchange_share"] = raw["comm.exchange_calls"] * raw["comm.exchange_s"] / run_s
    m["comm.reduce_share"] = raw["comm.reductions"] * raw["comm.reduce_s"] / run_s
    m["solvers.unattributed_share"] = (1.0 - m["ops.apply_share"] -
                                       m["comm.exchange_share"] -
                                       m["comm.reduce_share"])
    for name, *_ in LAYER_METRICS:
        if name.startswith("server."):
            m.setdefault(name, 0.0)  # no server runs in a timestep workload
    return m


# ---------------------------------------------------------------------------
# One run of one workload.
# ---------------------------------------------------------------------------


def run_workload(program, workload, seed, seconds, trace, results_dir):
    """Generate inputs, run tealeaf_e2e, check, record.  Returns the
    result object of the last output line plus tealeaf_e2e's raw output."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    run_dir = BUILD / "runs" / f"{workload}.seed{seed}.trace{trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # A traced run makes two passes (untraced, traced) at half length.
    length = seconds / 2 if trace else seconds
    cmd = [str(program), "--trace", str(trace), "--routes", str(ROUTES),
           "--llc-bytes", str(llc_bytes()),
           "--spans", str(run_dir / "spans.jsonl")]
    if spec["kind"] == "timestep":
        steps = timestep_steps(workload, length)
        (run_dir / "deck.in").write_text(make_timestep_deck(workload, rng, steps))
        cmd += ["--deck", str(run_dir / "deck.in"), "--ranks",
                str(spec["ranks"]), "--steps", str(steps),
                "--setups", str(SETUPS)]
    else:
        (run_dir / "requests.txt").write_text(make_request_stream(rng, length))
        cmd += ["--requests", str(run_dir / "requests.txt"),
                "--setups", str(SETUPS)]
    env = dict(os.environ, **omp_env())
    started_at = time.time()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PROGRAM_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish in {PROGRAM_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"run.py: tealeaf_e2e failed on {workload} (exit {proc.returncode})")
    raw = json.loads(lines[-1])

    if trace:
        spans = [json.loads(l) for l in
                 (run_dir / "spans.jsonl").read_text().splitlines()]
        values = layer_metrics(raw["layer"], spans)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        print(f"spans: {run_dir / 'spans.jsonl'} ({len(spans)} spans)")
    else:
        values = raw["e2e"]
        units = {name: unit for name, unit, *_ in E2E_METRICS}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    record = {"header": header(workload, seed, seconds, trace, started_at,
                               raw["build"]),
              **result, "checks": raw["checks"], "info": raw.get("info"),
              "layer_raw": raw.get("layer"), "extra": raw.get("extra")}
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload}.seed{seed}.trace{trace}.{stamp}.{time.time_ns() % 10**9}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return result, raw


def report(workload, result, raw):
    for name, m in result["metrics"].items():
        print(f"{name} {workload} {m['value']:.6g} {m['unit']}")
    for phase, stats in (raw.get("extra") or {}).items():
        for key in ("lat_p50_s", "lat_p99_s", "queue_wait_s_p50",
                    "service_s_p50", "solve_s_p50", "drain_s_p50",
                    "drain_rps_p50", "batch_size_mean", "cache_hit_frac",
                    "gen_lag_s_max"):
            print(f"server.{key}.{phase} {workload} {stats[key]:.6g}")
    layer = raw.get("layer")
    if layer:
        print(f"host: triad arrays of {layer['host.triad_array_bytes']:.0f} "
              f"bytes each, last-level cache {layer['host.llc_bytes']:.0f} "
              "bytes (computed bytes, 24 per element)")
    checks = raw["checks"]
    print(f"check {workload}: failed {raw['failed']} of {raw['attempted']}, "
          f"true residual <= {checks['residual_max']:.3g} "
          f"(tolerance {checks['residual_tol']:.3g}), energy drift <= "
          f"{checks['energy_drift_max']:.3g}, {checks['resolves']} solo re-solves")
    for failure in checks["failures"]:
        print(f"FAIL {workload}: {failure}")


# ---------------------------------------------------------------------------
# Self-test.
# ---------------------------------------------------------------------------


def self_test(program):
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    # Self times: a parent covered by two overlapping children and a gap.
    spans = [{"id": 0, "name": "p", "start": 0.0, "end": 10.0, "parent": -1},
             {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0},
             {"id": 2, "name": "b", "start": 3.0, "end": 5.0, "parent": 0},
             {"id": 3, "name": "c", "start": 7.0, "end": 12.0, "parent": 0}]
    st = self_times(spans)
    expect(abs(st[0] - 3.0) < 1e-12 and abs(st[1] - 3.0) < 1e-12,
           "self time subtracts the union of child intervals")

    # The residual oracle must pass a correct small solve and catch one
    # corrupted solution cell.
    tmp = BUILD / "runs" / "self-test"
    tmp.mkdir(parents=True, exist_ok=True)
    deck = crooked_pipe(64, 1, 25.0, PIPE_PPCG_SOLVER)
    (tmp / "deck.in").write_text(deck)
    base = [str(program), "--deck", str(tmp / "deck.in"), "--ranks", "4",
            "--steps", "1", "--setups", "1", "--trace", "0"]
    env = dict(os.environ, **omp_env())
    for perturb in (False, True):
        proc = subprocess.run(base + (["--perturb"] if perturb else []),
                              env=env, capture_output=True, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        fails = raw["checks"]["failures"]
        if perturb:
            expect(proc.returncode == 1 and raw["failed"] == 1 and
                   "true relative residual" in fails[0],
                   "a perturbed solution cell fails the residual check")
        else:
            expect(proc.returncode == 0 and raw["failed"] == 0,
                   "an unperturbed solve passes every check")

    # BENCHMARK.json, where present, lists exactly this runner's metrics.
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        e2e = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
        layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        expect(e2e == [tuple(m) for m in E2E_METRICS],
               "BENCHMARK.json end-to-end metrics match run.py")
        expect(layer == [tuple(m[:3]) for m in LAYER_METRICS],
               "BENCHMARK.json per-layer metrics match run.py")
        expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
               "BENCHMARK.json workloads match run.py")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--results-dir", type=Path, default=BUILD / "results")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run each selected workload this many times")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    check_checkout()
    program = build()
    if args.self_test:
        sys.exit(0 if self_test(program) else 1)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {w: [] for w in workloads}
    for _ in range(args.repeat):
        for workload in workloads:
            result, raw = run_workload(program, workload, args.seed,
                                       args.seconds, args.trace,
                                       args.results_dir)
            report(workload, result, raw)
            results[workload].append(result)
    # Every metric is the median over the repeats, so the summary's values
    # and its counts describe the same runs.
    runs = [r for rs in results.values() for r in rs]
    metrics = {}
    for workload, rs in results.items():
        for name, m in rs[0]["metrics"].items():
            key = name if len(workloads) == 1 else f"{name}.{workload}"
            metrics[key] = {"value": statistics.median(
                r["metrics"][name]["value"] for r in rs), "unit": m["unit"]}
    final = {"correct": all(r["correct"] for r in runs),
             "attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs), "metrics": metrics}
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
