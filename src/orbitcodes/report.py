"""Report assembly: every analysis section, its inequality checks, and a
canonical JSON encoding (sorted keys, fixed float precision) so identical
configs produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np

from orbitcodes import bounds as bounds_mod
from orbitcodes.codecore import (
    check_local_rs,
    min_distance_exhaustive,
    min_distance_sampled,
    monomial_count,
    schur_check,
)
from orbitcodes.cosetgraph import char_sum_max, sigma2_exact, sigma2_oracle
from orbitcodes.errors import DEFAULT_BUDGETS, BudgetError, ParameterError
from orbitcodes.instance import Instance, SCHEMA_VERSION

SECTIONS = ("spectrum", "rate", "distance", "verify")  # the report's sections, in report order
SPECTRAL_TOLERANCE = 1e-9  # slack of the sigma_2 comparisons, which are in floating point


def spectrum_section(inst: Instance, budgets: dict | None = None) -> dict:
    """The exact sigma_2 and M with their bounds; a refused sigma_2 oracle leaves out only its value and agreement."""
    b = {**DEFAULT_BUDGETS, **(budgets or {})}
    try:
        exact = sigma2_exact(inst.G, inst.A, field_budget=b["field_scan"])
        M = char_sum_max(inst.H, field_budget=b["field_scan"]).value
    except BudgetError as exc:
        return {"status": f"skipped: budget ({exc})", "ok": True}
    # sigma_2 <= sqrt(1/p + M/|H|), at the measured M and at the construction's bound on M
    p, h_order = inst.ambient.p, inst.H.order
    general, instance_bound = (math.sqrt(1 / p + c / h_order) for c in (M, inst.config.char_sum_bound))
    checks = {
        "within_instance_bound": exact.value <= instance_bound + SPECTRAL_TOLERANCE,
        "within_general_bound": exact.value <= general + SPECTRAL_TOLERANCE,
    }
    out = {
        "status": "computed",
        "sigma2_exact": exact.value,
        "bound_general": general,
        "bound_instance": instance_bound,
        "M": M,
        "lambda_max": str(exact.lambda_max),
        "checks": checks,
    }
    try:
        out["sigma2_svd"] = sigma2_oracle(inst.graph, edge_budget=b["oracle_edges"])
        checks["oracle_agreement"] = abs(exact.value - out["sigma2_svd"]) <= SPECTRAL_TOLERANCE
    except BudgetError as exc:
        out["oracle"] = f"skipped: budget ({exc})"
    out["ok"] = all(checks.values())
    return out


def rate_section(inst: Instance, budgets: dict | None = None, sigma2: float | None = None) -> dict:
    cfg, D, n = inst.config, inst.D, inst.n
    ms = inst.message_space()
    count = monomial_count(cfg, D)
    baseline = bounds_mod.counting_baseline(cfg.r, D, n)
    bounds = bounds_mod.bound_report(
        cfg.instantiation,
        cfg.m,
        cfg.r,
        Fraction(D, n),
        gamma=cfg.gamma,
        sigma2=0.0 if sigma2 is None else sigma2,
        D=D,
        n=n,
    )
    checks = {
        "monomial_count_le_dim": count <= ms.dim,
        "dim_ge_counting_floor": ms.dim >= baseline * n,
        "dim_ge_u_plus_v_minus_d": ms.dim >= ms.dim_u + ms.dim_v - D,
        "basis_constraints_pass": ms.verification["all_ok"],
    }
    return {
        "status": "computed",
        "dim": ms.dim,
        "dim_u": ms.dim_u,
        "dim_v": ms.dim_v,
        "rate": ms.dim / n,
        "monomial_count": count,
        "counting_baseline_finite": float(baseline),
        "bounds": bounds,
        "checks": checks,
        "ok": all(checks.values()),
    }


def distance_section(inst: Instance, budgets: dict | None = None, sigma2: float | None = None, sample: int = 0) -> dict:
    """Exhaustive distance under budget; over budget, sample > 0 draws that many codewords instead."""
    if sample < 0:
        raise ParameterError(f"sample count must be >= 0, got {sample}")
    b = {**DEFAULT_BUDGETS, **(budgets or {})}
    r, D, n = inst.config.r, inst.D, inst.n
    codewords = inst.codewords
    algebraic = n - D + 1
    if sigma2 is None:
        sigma2 = 0.0  # conservative: the expander bound is then an asymptotic form
        expander_form = "asymptotic form (sigma2 = 0 not measured here)"
    else:
        expander_form = "finite-p form"
    _, expander_rel = bounds_mod.distance_bounds(r, Fraction(D, n), sigma2)
    expander = math.ceil(n * expander_rel - 1e-12)
    out = {
        "bound_algebraic": algebraic,
        "bound_expander": expander,
        "expander_form": expander_form,
    }
    try:
        res = min_distance_exhaustive(codewords, budget=b["distance"])
        checks = {
            "ge_algebraic_bound": res.value >= algebraic,
            "ge_expander_bound": res.value >= expander,
        }
        out.update(
            {
                "status": "computed",
                "distance": res.value,
                "mode": res.mode,
                "enumerated": res.enumerated,
                "checks": checks,
                "ok": all(checks.values()),
            }
        )
    except BudgetError as exc:
        out.update({"status": f"skipped: budget ({exc})", "ok": True})
        if sample:
            out["sampled_upper_bound"] = min_distance_sampled(codewords, samples=sample, seed=inst.config.seed)
    return out


def verify_section(inst: Instance, budgets: dict | None = None, codeword: np.ndarray | None = None) -> dict:
    """Local RS check of a provided (n, k) codeword digit array, or of the first basis codewords and Schur pairs."""
    b = {**DEFAULT_BUDGETS, **(budgets or {})}
    r = inst.config.r
    if codeword is not None:
        rep = check_local_rs(inst.ambient, codeword, inst.local_maps, r)
        return {
            "status": "computed",
            "source": "provided codeword",
            "local_rs": rep.to_json(),
            "ok": rep.all_ok,
        }
    ms = inst.message_space()
    limit = min(ms.dim, b["verify_basis"])
    # Schur products of a few deterministic basis pairs, drawn from the stdlib stream: numpy.random costs ~8 ms to import
    rng = random.Random(inst.config.seed)
    pair_count = min(10, ms.dim * (ms.dim - 1) // 2) if ms.dim >= 2 else 0
    pairs = set()
    while len(pairs) < pair_count:
        i, j = rng.randrange(ms.dim), rng.randrange(ms.dim)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    rows = sorted(set(range(limit)).union(*pairs))  # only the basis rows that are checked
    digits = dict(zip(rows, inst.codewords(rows)))
    failures = []
    for bi in range(limit):
        rep = check_local_rs(inst.ambient, digits[bi], inst.local_maps, r)
        if not rep.all_ok:
            failures.append({"basis_index": bi, "failures": rep.failures()})
    schur_fail = []
    for i, j in sorted(pairs):
        rep = schur_check(inst.ambient, digits[i], digits[j], inst.local_maps, r)
        if not rep.all_ok:
            schur_fail.append({"pair": [i, j], "failures": rep.failures()})
    return {
        "status": "computed",
        "source": f"message basis (first {limit} of {ms.dim})",
        "basis_checked": limit,
        "schur_pairs_checked": len(pairs),
        "failures": failures,
        "schur_failures": schur_fail,
        "ok": not failures and not schur_fail,
    }


def full_report(
    inst: Instance,
    spectrum: bool = True,
    rate: bool = True,
    distance: bool = True,
    verify: bool = True,
    budgets: dict | None = None,
    sample: int = 0,
) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": inst.config.to_json(),
        "n": inst.n,
        "graph": inst.graph.summary_json(),
    }
    sigma2 = None
    if spectrum:
        doc["spectrum"] = spectrum_section(inst, budgets)
        sigma2 = doc["spectrum"].get("sigma2_exact")
    if rate:
        doc["rate"] = rate_section(inst, budgets, sigma2=sigma2)
    if distance:
        doc["distance"] = distance_section(inst, budgets, sigma2=sigma2, sample=sample)
    if verify:
        doc["verify"] = verify_section(inst, budgets)
    doc["ok"] = all(doc[section].get("ok", True) for section in SECTIONS if section in doc)
    return doc


# -- canonical JSON ----------------------------------------------------------------


def _canonicalize(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj: dict) -> str:
    """Deterministic rendering: sorted keys, 12-significant-digit floats."""
    return json.dumps(_canonicalize(obj), sort_keys=True, indent=2) + "\n"
