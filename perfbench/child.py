"""One measured iteration in a fresh process; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --mode report|setup [--trace SPANS_FILE]

``setup`` times ``instance.build_instance`` alone.  ``report`` makes the
calls ``orbitcodes report`` makes: ``build_instance``, ``full_report`` with
the workload's explicit budget table, then ``canonical_json``; each report
section is timed by wrapping its ``report.*_section`` entry point.  With
``--trace`` every public package function records a span instead, and the
spans are written to SPANS_FILE after the work.  Everything is imported
before the clock starts; nothing is cached across iterations, because each
runs in its own process, as every CLI call does.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import orbitcodes  # noqa: E402,F401  (loads every module before tracing/timing)
from orbitcodes import instance, report  # noqa: E402
from orbitcodes.report import canonical_json  # noqa: E402  (bound before tracing: gate work is not traced)
from tracer import ROOT, Tracer  # noqa: E402
from workloads import REFERENCE_SEED, SECTIONS, WORKLOADS  # noqa: E402


def _digest_at_reference_seed(doc: dict) -> str:
    doc = copy.copy(doc)
    doc["config"] = {**doc["config"], "seed": REFERENCE_SEED}
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _gate_fields(doc: dict, text: str, workload) -> dict:
    """Facts the launcher's correctness gate reads."""
    failed = 0
    for s in SECTIONS:
        sec = doc.get(s, {})
        failed += sum(1 for v in sec.get("checks", {}).values() if not v)
        failed += len(sec.get("failures", [])) + len(sec.get("schur_failures", []))
    dist, ver = doc.get("distance", {}), doc.get("verify", {})
    return {
        "ok": bool(doc["ok"]),
        "checks_failed": failed,
        "sections_skipped": sum(1 for s in workload.sections if doc.get(s, {}).get("status") != "computed"),
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "reference_sha256": _digest_at_reference_seed(doc),
        "enumerated": dist.get("enumerated"),
        "basis_checked": ver.get("basis_checked"),
        "schur_pairs_checked": ver.get("schur_pairs_checked"),
        "vertices_per_codeword": doc["graph"]["n_left"] + doc["graph"]["n_right"],
    }


def run_setup(workload, seed: int) -> dict:
    cfg = workload.instance_config(seed)
    t0 = time.perf_counter()
    inst = instance.build_instance(cfg)
    setup_s = time.perf_counter() - t0
    bundle = inst.bundle_json()
    bundle["config"] = {**bundle["config"], "seed": REFERENCE_SEED}
    return {
        "t0": t0,
        "setup_s": setup_s,
        "bundle_sha256": hashlib.sha256(canonical_json(bundle).encode()).hexdigest(),
    }


def run_report(workload, seed: int, tracer: Tracer | None) -> dict:
    cfg = workload.instance_config(seed)
    budgets = workload.budget_table()
    marks: dict[str, float] = {}

    def measured():
        t0 = marks["t0"] = time.perf_counter()
        inst = instance.build_instance(cfg)
        marks["setup_s"] = time.perf_counter() - t0
        doc = report.full_report(inst, budgets=budgets, **workload.report_kwargs())
        text = report.canonical_json(doc)
        marks["report_s"] = time.perf_counter() - t0
        return doc, text

    section_s: dict[str, float] = {}
    if tracer is None:
        for s in SECTIONS:
            setattr(report, f"{s}_section", _timed(getattr(report, f"{s}_section"), s, section_s))
    else:
        tracer.install()
        measured = tracer.span(ROOT, measured)
    doc, text = measured()
    out = {**marks, "section_s": section_s, **_gate_fields(doc, text, workload)}
    if tracer is not None:
        out["layers"] = tracer.self_times()
        out["counts"] = dict(tracer.counts)
    return out


def _timed(fn, key: str, sink: dict):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink[key] = time.perf_counter() - t0

    return wrapper


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("report", "setup"), required=True)
    ap.add_argument("--trace", default=None, help="write spans here (report mode only)")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = run_setup(workload, args.seed)
    else:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
        out = run_report(workload, args.seed, tracer)
        if tracer is not None:
            tracer.dump(args.trace)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
