"""Smoke test of the benchmark harness on I(2,2), n=48 (about a second).

    python3 perfbench/smoke.py

Runs one untraced and one traced iteration of all four report sections
and checks that the gate passes, that traced and untraced report bytes
agree, that every span lies inside its parent, that per-layer self times
sum to no more than report_s, and that the traced counters agree with the
report's own counts.  Exits 1 and names the failed checks otherwise.
"""

from __future__ import annotations

import json
import sys
import time

from run import OUT, RUN_LIMIT_S, gate, spawn
from tracer import ROOT, check_nesting
from workloads import REFERENCE_SEED, WORKLOADS

WORKLOAD = "smoke-I22"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{WORKLOAD}.json"
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[WORKLOAD]
    plain = spawn(WORKLOAD, REFERENCE_SEED, "report", deadline)
    traced = spawn(WORKLOAD, REFERENCE_SEED, "report", deadline, spans_path)
    checks = {"untraced gate": gate(workload, plain) is None, "traced gate": gate(workload, traced) is None}
    if all(checks.values()):
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        layers, counts = traced["layers"], traced["counts"]
        pairs = traced["schur_pairs_checked"]
        checked = traced["basis_checked"] + pairs
        checks.update(
            {
                "all four sections computed": plain["sections_skipped"] == 0 and len(plain["section_s"]) == 4,
                "report bytes equal with tracing on and off": plain["report_sha256"] == traced["report_sha256"],
                "spans nest inside their parents": (
                    not check_nesting(spans) and spans[0][0] == ROOT and all(s[3] >= 0 for s in spans[1:])
                ),
                "layer self times sum to at most report_s": (
                    sum(v["self_s"] for k, v in layers.items() if k != ROOT) <= traced["report_s"]
                ),
                "codewords_enumerated equals the report's enumerated": (
                    counts.get("codecore.codewords_enumerated") == traced["enumerated"]
                ),
                "vertices_checked equals (basis + Schur pairs) x vertices": (
                    counts.get("codecore.vertices_checked") == checked * traced["vertices_per_codeword"]
                ),
                "check_local_rs and schur_check calls match the report": (
                    layers["codecore.check_local_rs"]["calls"] == checked
                    and layers["codecore.schur_check"]["calls"] == pairs
                ),
            }
        )
    else:
        print(f"untraced: {gate(workload, plain)}; traced: {gate(workload, traced)}")
    for name, ok in checks.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
