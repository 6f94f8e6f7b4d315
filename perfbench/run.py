"""orbitcodes benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Every iteration runs in a fresh process (child.py), one at a time, pinned
to one CPU: a closed loop with one caller.  With ``--trace 0`` a run first
times SETUP_PROBES instance builds, then full report iterations while the
next one is projected to end within ``--seconds``, then more instance
builds until the time is used.  Meanwhile calibrate.py times a fixed chunk
on the same CPU; each measured time is scaled to a core that runs that
chunk in REFERENCE_CHUNK_S (see ``Calibrator``), and the run reports the
medians.  With ``--trace 1`` it runs pairs of one untraced and one traced
iteration and reports per-module self time and call counts, unscaled.

Every iteration passes a correctness gate (see ``gate``); one that fails
counts as a failed operation and makes ``correct`` false.  The last line
of stdout is the result object; the line before it, and a file under
``.perfbench_out/``, record the samples and the environment.  A run exits
0 when it prints a result and 1 when no iteration passed.  ``all`` runs
every workload once, prints each metric with its unit, and exits 1 if any
iteration failed the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import BENCH_WORKLOADS, REFERENCE_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run must end well inside 180 s
REFERENCE_CHUNK_S = 0.0005
NEAREST_CHUNK_S = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "report_s": "s", "sections_s": "s", "peak_rss_mb": "MB"}

# Spans reported per layer, with the end-to-end metric and workload each
# should move (README.md has the same map).
LAYER_SPANS = (
    # setup_s on spectrum-I52 and rate-I23
    "gf.build_field",
    "groupgeom.roots_of_linearized",
    "groupgeom.scaling_closure",
    "groupgeom.find_free_point",
    "groupgeom.orbit",
    "cosetgraph.build_graph",
    # sections_s (spectrum) on spectrum-I52
    "cosetgraph.sigma2_exact",
    "cosetgraph.char_sum_max",
    "cosetgraph.sigma2_svd",
    "gf.trace",
    # sections_s (verify) on local-II22
    "polyring.lagrange_interpolate",
    "codecore.check_local_rs",
    "codecore.schur_check",
    # sections_s (distance) on local-II22
    "codecore.min_distance_exhaustive",
    "codecore.encode_basis_digits",
    # sections_s (rate) on rate-I23
    "codecore.message_space",
    "codecore.verify_message_space",
    "codecore.constraint_report",
    "fppoly.divmod_",
    "fppoly.base_digits",
    "fppoly.max_digit_degree",
    "linalg.rref_mod_p",
    "linalg.nullspace_mod_p",
    # glue left in each section (plus its inclusive total_s, the traced section time)
    "report.spectrum_section",
    "report.rate_section",
    "report.distance_section",
    "report.verify_section",
)
LAYER_COUNTS = (
    "codecore.vertices_checked",
    "codecore.codewords_enumerated",
    "gf.mul.calls",
    "gf.inverse.calls",
    "gf.pow.calls",
)


def pinned_cpu() -> int:
    return max(os.sched_getaffinity(0))


def thread_settings() -> dict:
    # Children run on one CPU, so BLAS/OpenMP get one thread.
    return {var: "1" for var in THREAD_VARS}


def spawn(workload: str, seed: int, mode: str, deadline: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    env = {**os.environ, **thread_settings()}
    cpu = pinned_cpu()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} iteration exceeded the run limit", "wall_s": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": tail[0], "wall_s": wall}
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "wall_s": wall}


def gate(workload, res: dict) -> str | None:
    """None if the iteration's outputs are correct, else the reason."""
    if "error" in res:
        return res["error"]
    if "bundle_sha256" in res:
        return None if res["bundle_sha256"] == workload.bundle_sha256 else "instance differs from the reference build"
    if not res["ok"]:
        return "report ok is false"
    if res["checks_failed"]:
        return f"{res['checks_failed']} report checks failed"
    if res["sections_skipped"]:
        return f"{res['sections_skipped']} selected sections were not computed"
    if res["reference_sha256"] != workload.report_sha256:
        return f"report bytes differ from the seed-{REFERENCE_SEED} reference"
    return None


class Run:
    """Samples, failures and the clock of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.versions: dict = {}

    def iterate(self, mode: str, spans: Path | None = None) -> dict | None:
        res = spawn(self.workload.name, self.seed, mode, self.deadline, spans)
        self.attempted += 1
        self.versions = res.get("versions", self.versions)
        reason = gate(self.workload, res)
        if reason is not None:
            self.failures.append(f"{mode}: {reason}")
            return None
        return res

    def time_left_for(self, walls: list[float]) -> bool:
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(walls) <= self.seconds


class Calibrator:
    """calibrate.py on the children's CPU for the length of a run.

    The speed of a core in a shared machine can drift by tens of percent
    over seconds to minutes, and not in step across cores.  A time t
    measured over [start, start+t] is reported as
    t * REFERENCE_CHUNK_S / (mean chunk time over that interval): the time
    on a core that runs the chunk in REFERENCE_CHUNK_S.  The mean, not the
    median, because the measured work is slowed by every slow stretch of
    the interval in proportion to its length.  An interval too short to
    hold a chunk takes the nearest one.
    """

    def __enter__(self):
        cmd = [sys.executable, str(HERE / "calibrate.py"), str(pinned_cpu())]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.records: list = []
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return
        if self.proc.returncode == 0:
            self.records = json.loads(out)

    def scale(self, start: float, seconds: float) -> float | None:
        chunks = [dt for t, dt in self.records if start <= t <= start + seconds]
        if not chunks:
            mid = start + seconds / 2
            near = [(abs(t - mid), dt) for t, dt in self.records if abs(t - mid) <= NEAREST_CHUNK_S]
            chunks = [min(near)[1]] if near else []
        return REFERENCE_CHUNK_S / statistics.mean(chunks) if chunks else None


def measure_end_to_end(run: Run) -> tuple[dict, dict]:
    setups, setup_walls, reports, walls = [], [], [], []

    def probe() -> bool:
        res = run.iterate("setup")
        if res is not None:
            setups.append(res)
            setup_walls.append(res["wall_s"])
        return res is not None

    with Calibrator() as cal:
        for _ in range(SETUP_PROBES):
            if not probe():
                break
        while setups:
            res = run.iterate("report")
            if res is None:
                break
            reports.append(res)
            walls.append(res["wall_s"])
            if not run.time_left_for(walls):
                break
        # Spend the rest of the run on more set-up probes, so that setup_s is
        # a median over the whole run and not over its first seconds.
        while reports and run.time_left_for(setup_walls) and probe():
            pass
    if not reports:
        return {}, {}
    setups += reports
    setup_scale = [cal.scale(r["t0"], r["setup_s"]) for r in setups]
    report_scale = [cal.scale(r["t0"], r["report_s"]) for r in reports]
    if None in setup_scale or None in report_scale:
        run.failures.append("no core-speed reference chunk near a sample")
        return {}, {}
    walls = {
        "setup_s": [r["setup_s"] for r in setups],
        "report_s": [r["report_s"] for r in reports],
        "sections_s": [sum(r["section_s"].values()) for r in reports],
    }
    scaled = {k: [v * f for v, f in zip(vals, setup_scale if k == "setup_s" else report_scale)] for k, vals in walls.items()}
    metrics = {k: statistics.median(v) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reports)
    detail = {
        "samples": scaled,
        "wall_samples": walls,
        "wall_medians": {k: statistics.median(v) for k, v in walls.items()},
        "reference_chunk_s": {"count": len(cal.records), "mean": statistics.mean(dt for _, dt in cal.records)},
        "section_s": {
            s: statistics.median(r["section_s"][s] * f for r, f in zip(reports, report_scale)) for s in run.workload.sections
        },
        "checks_failed": max(r["checks_failed"] for r in reports),
        "sections_skipped": max(r["sections_skipped"] for r in reports),
        "report_sha256": reports[0]["report_sha256"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, detail


def measure_layers(run: Run) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    pairs, walls = [], []
    while True:
        spans = OUT / f"spans-{run.workload.name}-{len(pairs)}.json"  # one set per workload: spectrum's is ~30 MB
        plain = run.iterate("report")
        traced = run.iterate("report", spans) if plain is not None else None
        if traced is None:
            break
        if traced["report_sha256"] != plain["report_sha256"]:
            run.failures.append("report bytes differ with tracing on")
            break
        pairs.append((plain, traced))
        walls.append(plain["wall_s"] + traced["wall_s"])
        if not run.time_left_for(walls):
            break
    if not pairs:
        return {}, {}
    metrics: dict = {}
    for name in LAYER_SPANS:
        fields = ("self_s", "total_s", "calls") if name.startswith("report.") else ("self_s", "calls")
        for field in fields:
            vals = [t["layers"].get(name, {}).get(field, 0) for _, t in pairs]
            metrics[f"{name}.{field}"] = {"value": statistics.median(vals), "unit": "count" if field == "calls" else "s"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": statistics.median(t["counts"].get(name, 0) for _, t in pairs), "unit": "count"}
    overhead = statistics.median(t["report_s"] - p["report_s"] for p, t in pairs)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    detail = {
        "samples": {"pairs": len(pairs)},
        "report_s": {"untraced": statistics.median(p["report_s"] for p, _ in pairs),
                     "traced": statistics.median(t["report_s"] for _, t in pairs)},
    }
    return metrics, detail


def environment() -> dict:
    src = sorted((ROOT / "src" / "orbitcodes").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_cpu": pinned_cpu(),
        "threads": thread_settings(),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict | None, dict]:
    """(result object or None if no iteration passed, detail record)."""
    run = Run(name, seed, seconds)
    metrics, detail = (measure_layers if trace else measure_end_to_end)(run)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "elapsed_s": time.perf_counter() - run.start,
        "failures": run.failures,
        **detail,
        "env": {**environment(), "versions": run.versions},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    if not metrics:
        print(f"perfbench: no iteration of {name} passed: {run.failures[:3]}", file=sys.stderr)
        return None, record
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": len(run.failures), "metrics": metrics}
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*BENCH_WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "orbitcodes" / "__init__.py").is_file():
        print(f"perfbench: no orbitcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(record))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    status = 0
    for name in BENCH_WORKLOADS:
        result, _ = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None or not result["correct"]:
            status = 1
        if result is None:
            continue
        print(f"\n{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
