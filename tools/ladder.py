"""Time one rung of the instance ladder in one process; prints one JSON line.

    python3 tools/ladder.py --inst I --p 5 --m 2 [--D n] [--r 1/2] [--gamma G]
                            [--sections spectrum,rate,distance,verify]

The rung is built and reported with the calls ``orbitcodes report`` makes:
``build_instance`` of the config (what loading a bundle does), then
``full_report`` with the chosen sections, in report order, and the CLI's
budget table (the ORBITCODES_* variables apply), then ``canonical_json``.
Each section is timed by wrapping its ``report.*_section`` entry point.
The line holds the build's and each section's wall time and minor page
faults, the process's peak RSS, whether the report is ok, and the sha256
of the canonical report, the same bytes ``orbitcodes report --out`` writes.
The sources are read from this checkout's ``src``.  Pin the process and
its BLAS threads from outside, e.g.
``taskset -c 1 env OPENBLAS_NUM_THREADS=1 python3 tools/ladder.py ...``.
Exits 0 when the report is ok and 1 otherwise, as ``orbitcodes report``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbitcodes import report  # noqa: E402
from orbitcodes.cli import _budgets  # noqa: E402
from orbitcodes.instance import InstanceConfig, build_instance  # noqa: E402
from orbitcodes.report import SECTIONS  # noqa: E402


def _usage() -> tuple[float, int]:
    """Peak RSS in MB and minor page faults of this process so far."""
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_maxrss / 1024, use.ru_minflt


def _timed(fn, sink: dict):
    def wrapper(*args, **kwargs):
        t0, faults = time.perf_counter(), _usage()[1]
        try:
            return fn(*args, **kwargs)
        finally:
            sink.update(s=round(time.perf_counter() - t0, 6), minflt=_usage()[1] - faults)

    return wrapper


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inst", choices=["I", "II"], required=True)
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--D", default="n", help="global degree bound (integer or 'n')")
    ap.add_argument("--r", default="1/2")
    ap.add_argument("--gamma", default=None, help="scaling-group density 1/a (instantiation II)")
    ap.add_argument("--sections", default=",".join(SECTIONS), help="comma-separated report sections")
    args = ap.parse_args(argv)
    chosen = args.sections.split(",")
    if not set(chosen) <= set(SECTIONS):
        ap.error(f"--sections must name some of {', '.join(SECTIONS)}")
    config = InstanceConfig.from_json(
        {"instantiation": args.inst, "p": args.p, "m": args.m, "r": args.r, "D": None if args.D == "n" else args.D, "gamma": args.gamma}
    )
    budgets = _budgets()
    sections: dict[str, dict] = {}
    for s in SECTIONS:
        if s in chosen:
            setattr(report, f"{s}_section", _timed(getattr(report, f"{s}_section"), sections.setdefault(s, {})))
    build: dict = {}
    inst = _timed(build_instance, build)(config)
    doc = report.full_report(inst, budgets=budgets, **{s: s in chosen for s in SECTIONS})
    text = report.canonical_json(doc)
    out = {
        "rung": f"{args.inst}({args.p},{args.m})",
        "n": inst.n,
        "D": inst.D,
        "r": str(config.r),
        "build": build,
        "sections": sections,
        "peak_rss_mb": round(_usage()[0], 1),
        "ok": bool(doc["ok"]),
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    print(json.dumps(out))
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
