"""Command-line driver.

Subcommands: instantiate, graph, spectrum, rate, distance, encode, verify,
report, sweep.  `instantiate` writes a bundle JSON that every analysis
command consumes.  The bundle records the config, not the construction:
load_bundle rebuilds the instance from the config on every command and
checks the rebuilt alpha, n and graph summary against the bundle's, so a
tampered bundle is refused rather than analysed.  spectrum, rate,
distance and verify each run one report section (report.SECTIONS) alone,
through cmd_section; `report` runs the sections its flags name, or every
section when none is named.  Every command writes to --out, or to stdout
when it is not given.

Exit code 0 means every checked inequality held (budget-skipped sections
do not fail), and 1 that a check failed.  Anticipated errors surface as
structured JSON with exit code 2: bad parameters, a missing, unreadable,
non-UTF-8 or malformed input file, an --out path that cannot be written,
running out of memory, and an instance too large to index.

Budget defaults can be overridden with environment variables:
ORBITCODES_DISTANCE_BUDGET, ORBITCODES_ORACLE_EDGES, ORBITCODES_FIELD_SCAN,
ORBITCODES_VERIFY_BASIS.  Each must be a nonnegative integer; a bad value
is a structured error (exit 2) too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from orbitcodes import bounds as bounds_mod
from orbitcodes.codecore import encode
from orbitcodes.errors import OrbitcodesError, ParameterError
from orbitcodes.instance import InstanceConfig, SCHEMA_VERSION, build_instance, load_bundle
from orbitcodes.report import (
    DEFAULT_BUDGETS,
    SECTIONS,
    canonical_json,
    distance_section,
    full_report,
    rate_section,
    spectrum_section,
    verify_section,
)

_ENV_BUDGETS = {
    "distance": "ORBITCODES_DISTANCE_BUDGET",
    "oracle_edges": "ORBITCODES_ORACLE_EDGES",
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
    except ValueError as exc:  # JSONDecodeError, and UnicodeDecodeError for bytes that are not UTF-8
        raise ParameterError(f"{path} is not valid JSON: {exc}") from None


def _read_digits(ctx, data, key: str, path: str) -> np.ndarray:
    """The field elements under data[key] as an (entries, k) digit array, read mod p.

    Every entry must be a list of at most k JSON integers (booleans, floats
    and strings are refused, not coerced); missing high digits are zero.
    """
    if not isinstance(data, dict) or key not in data:
        raise ParameterError(f"{path} has no {key!r} list")
    entries = data[key]
    if not isinstance(entries, list) or not all(
        isinstance(v, list) and len(v) <= ctx.k and all(type(c) is int for c in v) for v in entries
    ):
        raise ParameterError(f"{path}: {key!r} must be a list of lists of at most {ctx.k} integers")
    out = np.zeros((len(entries), ctx.k), dtype=np.int64)
    for row, v in zip(out, entries):
        row[: len(v)] = [c % ctx.p for c in v]
    return out


def _write(text: str, out_path: str | None) -> None:
    """Write text to out_path, or to stdout when no path is given."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {out_path}: {exc.strerror}") from None


def _config_from_args(args) -> InstanceConfig:
    return InstanceConfig.from_json(
        {
            "instantiation": args.inst,
            "p": args.p,
            "m": args.m,
            "r": args.r,
            "D": None if args.D == "n" else args.D,
            "gamma": args.gamma,
            "seed": args.seed,
        }
    )


def cmd_instantiate(args) -> int:
    inst = build_instance(_config_from_args(args))
    _write(canonical_json(inst.bundle_json()), args.out)
    return 0


def cmd_graph(args) -> int:
    inst = load_bundle(_read_json(args.bundle))
    lines = ["edge_id,left_idx,right_idx"]
    lines += [f"{e},{l},{r}" for e, (l, r) in enumerate(inst.graph.edges.tolist())]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _sample(args) -> int:
    """The --sample count, refused when negative before the bundle is read or any section runs."""
    if args.sample < 0:
        raise ParameterError(f"sample count must be >= 0, got {args.sample}")
    return args.sample


def cmd_section(args) -> int:
    """The report section the subcommand names, run alone on a bundle; exit 1 iff one of its checks failed."""
    extra = {"sample": _sample(args)} if args.command == "distance" else {}
    inst = load_bundle(_read_json(args.bundle))
    budgets = _budgets()
    if args.command == "verify" and args.codeword:
        extra["codeword"] = _read_digits(inst.ambient, _read_json(args.codeword), "values", args.codeword)
    body = globals()[f"{args.command}_section"](inst, budgets, **extra)
    doc = {"schema_version": SCHEMA_VERSION, "config": inst.config.to_json(), args.command: body}
    _write(canonical_json(doc), args.out)
    return 0 if body.get("ok", True) else 1


def cmd_encode(args) -> int:
    inst = load_bundle(_read_json(args.bundle))
    coeffs = _read_digits(inst.ambient, _read_json(args.message), "coeffs", args.message)
    cw = encode(coeffs, inst.omega, inst.G, inst.H, inst.config.r, inst.D)
    _write(canonical_json({"schema_version": SCHEMA_VERSION, "n": inst.n, "values": cw.tolist()}), args.out)
    return 0


def cmd_report(args) -> int:
    sample = _sample(args)
    inst = load_bundle(_read_json(args.bundle))
    every = not any(getattr(args, s) for s in SECTIONS)  # no section flag means every section
    doc = full_report(inst, budgets=_budgets(), sample=sample, **{s: every or getattr(args, s) for s in SECTIONS})
    _write(canonical_json(doc), args.out)
    return 0 if doc["ok"] else 1


def _grid(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok) for tok in text.split(",")]  # an empty entry is malformed too
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"malformed fraction list {text!r}: {exc}") from None


def cmd_sweep(args) -> int:
    rows = ["inst,m,r,rho,gamma,volume,rate_lb_polytope,dist_lb_algebraic,dist_lb_expander_asymptotic,form"]
    if (args.inst == "II") != bool(args.gamma_grid):
        needs = "needs" if args.inst == "II" else "takes no"
        raise ParameterError(f"sweep over instantiation {args.inst} {needs} --gamma-grid")
    gammas = _grid(args.gamma_grid) if args.gamma_grid else [None]
    for r in _grid(args.r_grid):
        for rho in _grid(args.rho_grid):
            for gamma in gammas:
                br = bounds_mod.bound_report(args.inst, args.m, r, rho, gamma=gamma, sigma2=0.0)
                rows.append(
                    ",".join(
                        [
                            args.inst,
                            str(args.m),
                            str(r),
                            str(rho),
                            "" if gamma is None else str(gamma),
                            f"{br['volume']:.12g}",
                            f"{br['rate_lb_polytope']:.12g}",
                            f"{br['dist_lb_algebraic']:.12g}",
                            f"{br['dist_lb_expander']:.12g}",
                            "asymptotic form",
                        ]
                    )
                )
    _write("\n".join(rows) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbitcodes", description="Coset-graph evaluation code workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, bundle=True):
        """A subcommand that writes to --out (stdout when not given) and, when bundle is set, reads --bundle."""
        sp = sub.add_parser(name, help=summary)
        if bundle:
            sp.add_argument("--bundle", required=True)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=func)
        return sp

    p_inst = command("instantiate", cmd_instantiate, "build an instance bundle", bundle=False)
    p_inst.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    p_inst.add_argument("--m", type=int, required=True, help="sparsity parameter (>= 2)")
    p_inst.add_argument("--inst", choices=["I", "II"], required=True, help="instantiation")
    p_inst.add_argument("--r", default="1/2", help="local rate as a fraction a/b")
    p_inst.add_argument("--D", default=None, help="global degree bound (integer or 'n')")
    p_inst.add_argument("--gamma", default=None, help="scaling-group density 1/a (instantiation II)")
    p_inst.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    command("graph", cmd_graph, "graph analysis of a bundle")
    command("spectrum", cmd_section, "spectrum analysis of a bundle")
    command("rate", cmd_section, "rate analysis of a bundle")
    p_dist = command("distance", cmd_section, "exhaustive minimum distance under budget")
    p_dist.add_argument("--sample", type=int, default=0, help="fallback sample count when over budget")
    p_enc = command("encode", cmd_encode, "encode message coefficients to a codeword")
    p_enc.add_argument("--message", required=True, help="JSON file with {'coeffs': [[digits], ...]}")
    p_ver = command("verify", cmd_section, "local RS verification of a codeword or the basis")
    p_ver.add_argument("--codeword", default=None, help="JSON file with {'values': [[digits], ...]}")

    p_rep = command("report", cmd_report, "combined report; exit 0 iff all inequalities hold")
    for name in SECTIONS:
        p_rep.add_argument(f"--{name}", action="store_true")
    p_rep.add_argument("--sample", type=int, default=0)

    p_sw = command("sweep", cmd_sweep, "closed-form bound table over a parameter grid (CSV)", bundle=False)
    p_sw.add_argument("--inst", choices=["I", "II"], required=True)
    p_sw.add_argument("--m", type=int, required=True)
    p_sw.add_argument("--r-grid", required=True, help="comma-separated fractions")
    p_sw.add_argument("--rho-grid", required=True, help="comma-separated fractions")
    p_sw.add_argument("--gamma-grid", default=None, help="comma-separated fractions (II)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OrbitcodesError, MemoryError, OverflowError) as exc:
        # numpy raises a private subclass of MemoryError; the record names the public class.
        # An instance too large to index (p^m past sys.maxsize) raises OverflowError instead.
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        doc = {
            "schema_version": SCHEMA_VERSION,
            "error": {"type": kind, "condition": str(exc) or "out of memory"},
        }
        sys.stdout.write(canonical_json(doc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
