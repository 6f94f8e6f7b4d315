"""Report assembly: every analysis section, its inequality checks, and a
canonical JSON encoding (sorted keys, fixed float precision) so identical
configs produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from orbitcodes import bounds as bounds_mod
from orbitcodes.codecore import (
    Codeword,
    check_local_rs,
    codeword_from_digits,
    encode_basis_digits,
    min_distance_exhaustive,
    min_distance_sampled,
    monomial_count,
    schur_check,
    verify_message_space,
)
from orbitcodes.cosetgraph import (
    SpectralReport,
    char_sum_max,
    sigma2_exact,
    sigma2_svd,
    spectral_bounds,
)
from orbitcodes.errors import BudgetError
from orbitcodes.instance import Instance, SCHEMA_VERSION

DEFAULT_BUDGETS = {
    "distance": 1 << 24,
    "svd_side": 5000,
    "field_scan": 1 << 20,
    "verify_basis": 64,
}


def spectral_analysis(inst: Instance, budgets: dict | None = None) -> SpectralReport:
    b = {**DEFAULT_BUDGETS, **(budgets or {})}
    exact = sigma2_exact(inst.G, inst.H, inst.S, inst.ambient, field_budget=b["field_scan"])
    svd = sigma2_svd(inst.graph, side_budget=b["svd_side"])
    m_res = char_sum_max(inst.H, inst.ambient, field_budget=b["field_scan"])
    general, instance_bound = spectral_bounds(
        inst.config.p, m_res.value, inst.H.order, inst.config.m, inst.config.instantiation
    )
    return SpectralReport(
        sigma2_exact=exact.value,
        sigma2_svd=svd,
        bound_general=general,
        bound_instance=instance_bound,
        char_sum_max=m_res.value,
        lambda_max=exact.lambda_max,
    )


def spectrum_section(inst: Instance, budgets: dict | None = None) -> dict:
    try:
        rep = spectral_analysis(inst, budgets)
    except BudgetError as exc:
        return {"status": f"skipped: budget ({exc})", "ok": True}
    out = rep.to_json()
    out["status"] = "computed"
    out["ok"] = rep.all_ok()
    return out


def rate_section(inst: Instance, budgets: dict | None = None, sigma2: float | None = None) -> dict:
    params = inst.params
    ms = inst.message_space()
    count = monomial_count(params)
    baseline = bounds_mod.counting_baseline(params.r, params.D, params.n)
    rho = params.rho
    br = bounds_mod.bound_report(
        params.instantiation,
        params.m,
        params.r,
        rho,
        gamma=params.gamma,
        sigma2=0.0 if sigma2 is None else sigma2,
        D=params.D,
        n=params.n,
    )
    verification = verify_message_space(ms, inst.G, inst.H, params)
    floor_bound = 2 * math.floor(params.r * params.D) - params.D
    checks = {
        "monomial_count_le_dim": count <= ms.dim,
        "dim_ge_counting_floor": ms.dim >= max(0, floor_bound),
        "dim_ge_u_plus_v_minus_d": ms.dim >= ms.dim_u + ms.dim_v - params.D,
        "basis_constraints_pass": verification["all_ok"],
    }
    return {
        "status": "computed",
        "dim": ms.dim,
        "dim_u": ms.dim_u,
        "dim_v": ms.dim_v,
        "rate": ms.dim / params.n,
        "monomial_count": count,
        "counting_baseline_finite": float(baseline),
        "bounds": br.to_json(),
        "checks": checks,
        "ok": all(checks.values()),
    }


def distance_section(inst: Instance, budgets: dict | None = None, sigma2: float | None = None, sample: int = 0) -> dict:
    b = {**DEFAULT_BUDGETS, **(budgets or {})}
    params = inst.params
    ms = inst.message_space()
    algebraic = params.n - params.D + 1
    if sigma2 is None:
        sigma2 = 0.0  # conservative: the expander bound is then an asymptotic form
        expander_form = "asymptotic form (sigma2 = 0 not measured here)"
    else:
        expander_form = "finite-p form"
    _, expander_rel = bounds_mod.distance_bounds(params.r, params.rho, sigma2)
    expander = math.ceil(params.n * expander_rel - 1e-12)
    out = {
        "bound_algebraic": algebraic,
        "bound_expander": expander,
        "expander_form": expander_form,
    }
    try:
        res = min_distance_exhaustive(ms, inst.omega, inst.G, inst.H, params, budget=b["distance"])
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
            out["sampled_upper_bound"] = min_distance_sampled(ms, inst.omega, samples=sample, seed=inst.config.seed)
    return out


def verify_section(inst: Instance, budgets: dict | None = None, codeword: Codeword | None = None) -> dict:
    b = {**DEFAULT_BUDGETS, **(budgets or {})}
    params = inst.params
    if codeword is not None:
        rep = check_local_rs(codeword, inst.graph, inst.omega, params)
        return {
            "status": "computed",
            "source": "provided codeword",
            "local_rs": rep.to_json(),
            "ok": rep.all_ok,
        }
    ms = inst.message_space()
    limit = min(ms.dim, b["verify_basis"])
    digits = encode_basis_digits(ms, inst.omega)
    all_ok = True
    failures = []
    for bi in range(limit):
        cw = codeword_from_digits(inst.ambient, digits[bi])
        rep = check_local_rs(cw, inst.graph, inst.omega, params)
        if not rep.all_ok:
            all_ok = False
            failures.append({"basis_index": bi, "failures": [v.to_json() for v in rep.failures()]})
    # Schur products of a few deterministic basis pairs
    rng = np.random.default_rng(inst.config.seed)
    schur_fail = []
    pair_count = min(10, ms.dim * (ms.dim - 1) // 2) if ms.dim >= 2 else 0
    pairs = set()
    while len(pairs) < pair_count:
        i, j = int(rng.integers(0, ms.dim)), int(rng.integers(0, ms.dim))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    for i, j in sorted(pairs):
        cw1 = codeword_from_digits(inst.ambient, digits[i])
        cw2 = codeword_from_digits(inst.ambient, digits[j])
        rep = schur_check(cw1, cw2, inst.graph, inst.omega, params)
        if not rep.all_ok:
            all_ok = False
            schur_fail.append({"pair": [i, j], "failures": [v.to_json() for v in rep.failures()]})
    return {
        "status": "computed",
        "source": f"message basis (first {limit} of {ms.dim})",
        "basis_checked": limit,
        "schur_pairs_checked": len(pairs),
        "failures": failures,
        "schur_failures": schur_fail,
        "ok": all_ok,
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
    doc["ok"] = all(
        doc[section].get("ok", True) for section in ("spectrum", "rate", "distance", "verify") if section in doc
    )
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
