"""Command-line driver.

Subcommands: instantiate, graph, spectrum, rate, encode, verify, distance,
report, sweep.  `instantiate` writes a bundle JSON that every analysis
command consumes, so the expensive construction runs once.  Exit code 0
means every checked inequality held (budget-skipped sections do not fail);
anticipated errors surface as structured JSON with exit code 2.

Budget defaults can be overridden with environment variables:
ORBITCODES_DISTANCE_BUDGET, ORBITCODES_SVD_SIDE, ORBITCODES_FIELD_SCAN,
ORBITCODES_VERIFY_BASIS.  Each must be a nonnegative integer; a bad value,
like a missing or malformed input file, is a structured error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from orbitcodes import bounds as bounds_mod
from orbitcodes.codecore import Codeword, encode
from orbitcodes.errors import OrbitcodesError, ParameterError
from orbitcodes.instance import InstanceConfig, SCHEMA_VERSION, build_instance, load_bundle
from orbitcodes.polyring import Poly
from orbitcodes.report import (
    DEFAULT_BUDGETS,
    canonical_json,
    distance_section,
    full_report,
    rate_section,
    spectrum_section,
    verify_section,
)

_ENV_BUDGETS = {
    "distance": "ORBITCODES_DISTANCE_BUDGET",
    "svd_side": "ORBITCODES_SVD_SIDE",
    "field_scan": "ORBITCODES_FIELD_SCAN",
    "verify_basis": "ORBITCODES_VERIFY_BASIS",
}


def _budgets() -> dict:
    out = dict(DEFAULT_BUDGETS)
    for key, env in _ENV_BUDGETS.items():
        if env in os.environ:
            text = os.environ[env]
            try:
                value = int(text)
            except ValueError:
                raise ParameterError(f"{env}={text!r} is not an integer") from None
            if value < 0:
                raise ParameterError(f"{env}={value} is negative")
            out[key] = value
    return out


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}") from None


def _field_elements(ctx, data, key: str, path: str) -> list:
    """The digit vectors under data[key] as field elements."""
    if not isinstance(data, dict) or key not in data:
        raise ParameterError(f"{path} has no {key!r} list")
    try:
        return [ctx.element(v) for v in data[key]]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: {key!r} must be a list of digit lists ({exc})") from None


def _load_bundle(path: str):
    return load_bundle(_read_json(path))


def _emit(doc: dict, out_path: str | None) -> None:
    text = canonical_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> InstanceConfig:
    return InstanceConfig(
        instantiation=args.inst,
        p=args.p,
        m=args.m,
        r=Fraction(args.r),
        D=None if args.D in (None, "n") else int(args.D),
        gamma=None if args.gamma is None else Fraction(args.gamma),
        seed=args.seed,
    )


def cmd_instantiate(args) -> int:
    inst = build_instance(_config_from_args(args))
    _emit(inst.bundle_json(), args.out)
    return 0


def cmd_graph(args) -> int:
    inst = _load_bundle(args.bundle)
    lines = ["edge_id,left_idx,right_idx"]
    lines += [f"{e},{l},{r}" for e, l, r in inst.graph.edge_rows()]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _section_command(args, section_fn) -> int:
    inst = _load_bundle(args.bundle)
    body = section_fn(inst, _budgets())
    doc = {"schema_version": SCHEMA_VERSION, "config": inst.config.to_json(), **{args.command: body}}
    _emit(doc, args.out)
    return 0 if body.get("ok", True) else 1


def cmd_spectrum(args) -> int:
    return _section_command(args, spectrum_section)


def cmd_rate(args) -> int:
    return _section_command(args, rate_section)


def cmd_distance(args) -> int:
    inst = _load_bundle(args.bundle)
    body = distance_section(inst, _budgets(), sample=args.sample)
    doc = {"schema_version": SCHEMA_VERSION, "config": inst.config.to_json(), "distance": body}
    _emit(doc, args.out)
    return 0 if body.get("ok", True) else 1


def cmd_encode(args) -> int:
    inst = _load_bundle(args.bundle)
    coeffs = _field_elements(inst.ambient, _read_json(args.message), "coeffs", args.message)
    f = Poly(inst.ambient, coeffs)
    cw = encode(f, inst.omega, inst.G, inst.H, inst.params)
    _emit({"schema_version": SCHEMA_VERSION, "n": inst.n, "values": cw.to_json()}, args.out)
    return 0


def cmd_verify(args) -> int:
    inst = _load_bundle(args.bundle)
    cw = None
    if args.codeword:
        values = _field_elements(inst.ambient, _read_json(args.codeword), "values", args.codeword)
        cw = Codeword(values=tuple(values))
    body = verify_section(inst, _budgets(), codeword=cw)
    doc = {"schema_version": SCHEMA_VERSION, "config": inst.config.to_json(), "verify": body}
    _emit(doc, args.out)
    return 0 if body.get("ok", False) else 1


def cmd_report(args) -> int:
    inst = _load_bundle(args.bundle)
    chosen = {
        "spectrum": args.spectrum,
        "rate": args.rate,
        "distance": args.distance,
        "verify": args.verify,
    }
    if not any(chosen.values()):
        chosen = {k: True for k in chosen}
    doc = full_report(
        inst,
        spectrum=chosen["spectrum"],
        rate=chosen["rate"],
        distance=chosen["distance"],
        verify=chosen["verify"],
        budgets=_budgets(),
        sample=args.sample,
    )
    _emit(doc, args.out)
    return 0 if doc["ok"] else 1


def _grid(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.split(",") if tok]


def cmd_sweep(args) -> int:
    rows = ["inst,m,r,rho,gamma,volume,rate_lb_polytope,dist_lb_algebraic,dist_lb_expander_asymptotic,form"]
    gammas = _grid(args.gamma_grid) if args.gamma_grid else [None]
    for r in _grid(args.r_grid):
        for rho in _grid(args.rho_grid):
            for gamma in gammas:
                if args.inst == "II" and gamma is None:
                    raise OrbitcodesError("sweep over instantiation II needs --gamma-grid")
                br = bounds_mod.bound_report(args.inst, args.m, r, rho, gamma=gamma, sigma2=0.0)
                rows.append(
                    ",".join(
                        [
                            args.inst,
                            str(args.m),
                            str(r),
                            str(rho),
                            "" if gamma is None else str(gamma),
                            f"{float(br.volume):.12g}",
                            f"{float(br.rate_lb_polytope):.12g}",
                            f"{float(br.dist_lb_algebraic):.12g}",
                            f"{br.dist_lb_expander:.12g}",
                            "asymptotic form",
                        ]
                    )
                )
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbitcodes", description="Coset-graph evaluation code workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
        p.add_argument("--m", type=int, required=True, help="sparsity parameter (>= 2)")
        p.add_argument("--inst", choices=["I", "II"], required=True, help="instantiation")
        p.add_argument("--r", default="1/2", help="local rate as a fraction a/b")
        p.add_argument("--D", default=None, help="global degree bound (integer or 'n')")
        p.add_argument("--gamma", default=None, help="scaling-group density 1/a (instantiation II)")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    p_inst = sub.add_parser("instantiate", help="build an instance bundle")
    add_instance_args(p_inst)
    p_inst.add_argument("--out", default=None)
    p_inst.set_defaults(func=cmd_instantiate)

    for name, fn, extra in [
        ("graph", cmd_graph, ()),
        ("spectrum", cmd_spectrum, ()),
        ("rate", cmd_rate, ()),
    ]:
        sp = sub.add_parser(name, help=f"{name} analysis of a bundle")
        sp.add_argument("--bundle", required=True)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=fn)

    p_dist = sub.add_parser("distance", help="exhaustive minimum distance under budget")
    p_dist.add_argument("--bundle", required=True)
    p_dist.add_argument("--out", default=None)
    p_dist.add_argument("--sample", type=int, default=0, help="fallback sample count when over budget")
    p_dist.set_defaults(func=cmd_distance)

    p_enc = sub.add_parser("encode", help="encode message coefficients to a codeword")
    p_enc.add_argument("--bundle", required=True)
    p_enc.add_argument("--message", required=True, help="JSON file with {'coeffs': [[digits], ...]}")
    p_enc.add_argument("--out", default=None)
    p_enc.set_defaults(func=cmd_encode)

    p_ver = sub.add_parser("verify", help="local RS verification of a codeword or the basis")
    p_ver.add_argument("--bundle", required=True)
    p_ver.add_argument("--codeword", default=None, help="JSON file with {'values': [[digits], ...]}")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("report", help="combined report; exit 0 iff all inequalities hold")
    p_rep.add_argument("--bundle", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--spectrum", action="store_true")
    p_rep.add_argument("--rate", action="store_true")
    p_rep.add_argument("--distance", action="store_true")
    p_rep.add_argument("--verify", action="store_true")
    p_rep.add_argument("--sample", type=int, default=0)
    p_rep.set_defaults(func=cmd_report)

    p_sw = sub.add_parser("sweep", help="closed-form bound table over a parameter grid (CSV)")
    p_sw.add_argument("--inst", choices=["I", "II"], required=True)
    p_sw.add_argument("--m", type=int, required=True)
    p_sw.add_argument("--r-grid", required=True, help="comma-separated fractions")
    p_sw.add_argument("--rho-grid", required=True, help="comma-separated fractions")
    p_sw.add_argument("--gamma-grid", default=None, help="comma-separated fractions (II)")
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrbitcodesError as exc:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "error": {"type": type(exc).__name__, "condition": str(exc)},
        }
        sys.stdout.write(canonical_json(doc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
