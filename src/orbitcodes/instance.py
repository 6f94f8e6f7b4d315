"""Instance construction: from (p, m, instantiation, gamma, r, D) to a fully
built field, subgroup pair, closure, affine group, orbit and coset graph.

Instantiation I (balanced): G is the root space of X^(p^m) + X^p + X, H is
the multiplicative group of the degree-m subfield, and the ambient field is
the smallest F_(p^l) with l a common multiple of m and the splitting degree
of g such that p^l >= |A|.

Instantiation II (tunable): G is the degree-m subfield, H the cyclic
subgroup of the degree-(m+1) subfield's multiplicative group of order
gamma*(p^(m+1)-1), and the ambient degree is fixed at 2m(m+1).  gamma must
be the reciprocal of an integer dividing p-1, which makes the order
integral (and keeps |H| above p^m so the weight profile applies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from orbitcodes import fppoly
from orbitcodes.codecore import CodeParams, MessageSpace, message_space
from orbitcodes.cosetgraph import CosetGraph, build_graph
from orbitcodes.errors import ConfigurationError, InternalError, ParameterError
from orbitcodes.gf import FieldContext, FieldElement, FpSubspace, build_field
from orbitcodes.groupgeom import (
    GroupA,
    ScalingGroup,
    TranslationGroup,
    affine_group,
    find_free_point,
    orbit,
    roots_of_linearized,
    scaling_closure,
    scaling_subgroup,
)
from orbitcodes.numutil import is_prime, lcm
from orbitcodes.polyring import Poly

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InstanceConfig:
    """Validated build request for one code instance."""

    instantiation: str
    p: int
    m: int
    r: Fraction = Fraction(1, 2)
    D: int | None = None  # None means D = n
    gamma: Fraction | None = None
    seed: int = 0

    def __post_init__(self):
        if self.instantiation not in ("I", "II"):
            raise ParameterError(f"instantiation must be 'I' or 'II', got {self.instantiation!r}")
        if not is_prime(self.p):
            raise ParameterError(f"p must be prime, got {self.p}")
        if self.m < 2:
            raise ParameterError(f"m must be >= 2, got {self.m}")
        if not (0 < self.r < 1):
            raise ParameterError(f"r must lie in (0, 1), got {self.r}")
        if self.instantiation == "II":
            g = self.gamma
            if g is None:
                raise ParameterError("instantiation II needs gamma")
            if g.numerator != 1 or (self.p - 1) % g.denominator != 0:
                raise ParameterError(
                    f"gamma must be 1/a with a dividing p-1; got {g} at p={self.p}"
                )
        elif self.gamma is not None:
            raise ParameterError("gamma only applies to instantiation II")

    def to_json(self) -> dict:
        return {
            "instantiation": self.instantiation,
            "p": self.p,
            "m": self.m,
            "r": str(self.r),
            "D": self.D,
            "gamma": None if self.gamma is None else str(self.gamma),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "InstanceConfig":
        return cls(
            instantiation=data["instantiation"],
            p=int(data["p"]),
            m=int(data["m"]),
            r=Fraction(data.get("r", "1/2")),
            D=data.get("D"),
            gamma=None if data.get("gamma") is None else Fraction(data["gamma"]),
            seed=int(data.get("seed", 0)),
        )


@dataclass
class Instance:
    """A fully built instance; immutable after construction."""

    config: InstanceConfig
    ambient: FieldContext
    G: TranslationGroup
    H: ScalingGroup
    S: FpSubspace
    A: GroupA
    alpha: FieldElement
    omega: tuple[FieldElement, ...]
    graph: CosetGraph

    _ms_cache: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def params(self) -> CodeParams:
        return self.code_params()

    def code_params(self, r: Fraction | None = None, D: int | None = None) -> CodeParams:
        cfg = self.config
        rr = cfg.r if r is None else r
        dd = (cfg.D if cfg.D is not None else self.n) if D is None else D
        return CodeParams(
            instantiation=cfg.instantiation,
            p=cfg.p,
            m=cfg.m,
            r=Fraction(rr),
            D=dd,
            n=self.n,
            gamma=cfg.gamma,
        )

    def message_space(self, r: Fraction | None = None, D: int | None = None, verify: bool = True) -> MessageSpace:
        params = self.code_params(r, D)
        key = (params.r, params.D, verify)
        if key not in self._ms_cache:
            self._ms_cache[key] = message_space(self.G, self.H, params, verify=verify)
        return self._ms_cache[key]

    def bundle_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_json(),
            "field": self.ambient.to_json(),
            "G": {"subspace": self.G.points.to_json(), "invariant_poly_degree": int(self.G.invariant_poly.degree)},
            "H": self.H.to_json(),
            "S": self.S.to_json(),
            "A_size": self.A.size,
            "alpha": self.alpha.to_json(),
            "n": self.n,
            "omega": [x.to_json() for x in self.omega],
            "graph": self.graph.summary_json(),
        }


def _splitting_degree_of_g(p: int, m: int) -> int:
    g = [0] * (p**m + 1)
    g[1] = (g[1] + 1) % p
    g[p] = (g[p] + 1) % p
    g[p**m] = (g[p**m] + 1) % p
    return fppoly.splitting_degree(fppoly.make(g, p), p)


def _ambient_degree_i(p: int, m: int) -> int:
    base = lcm(_splitting_degree_of_g(p, m), m)
    group_size = p ** (m * m) * (p**m - 1)
    ell = base
    while p**ell < group_size:
        ell += base
    return ell


def build_instance(config: InstanceConfig) -> Instance:
    """Deterministic construction of the full instance for a config."""
    p, m = config.p, config.m
    if config.instantiation == "I":
        ell = _ambient_degree_i(p, m)
        ambient = build_field(p, ell)
        prime_ctx = build_field(p, 1)
        g_ints = [0] * (p**m + 1)
        g_ints[1] = (g_ints[1] + 1) % p
        g_ints[p] = (g_ints[p] + 1) % p
        g_ints[p**m] = (g_ints[p**m] + 1) % p
        g_poly = Poly.from_ints(ambient, g_ints)
        points = roots_of_linearized(Poly.from_ints(prime_ctx, g_ints), ambient)
        G = TranslationGroup(points, invariant_poly=None)  # product form, compared to g below
        if G.invariant_poly != g_poly:
            raise InternalError("annihilator product does not reproduce the defining polynomial")
        H = scaling_subgroup(ambient, p**m - 1)
        expected_s = p ** (m * m)
    else:
        ell = 2 * m * (m + 1)
        ambient = build_field(p, ell)
        prime_ctx = build_field(p, 1)
        g_ints = [0] * (p**m + 1)
        g_ints[1] = -1 % p
        g_ints[p**m] = 1
        points = roots_of_linearized(Poly.from_ints(prime_ctx, g_ints), ambient)
        G = TranslationGroup(points, invariant_poly=None)
        if G.invariant_poly != Poly.from_ints(ambient, g_ints):
            raise InternalError("annihilator product does not reproduce X^(p^m) - X")
        h_order = int(config.gamma * (p ** (m + 1) - 1))
        H = scaling_subgroup(ambient, h_order)
        expected_s = p ** (m * (m + 1))

    S = scaling_closure(G, H)
    if S.size != expected_s:
        raise ConfigurationError(f"closure size {S.size} differs from the expected {expected_s}")
    A = affine_group(S, H, ambient)
    alpha = find_free_point(A)
    om = orbit(A, alpha)
    graph = build_graph(A, G)
    inst = Instance(
        config=config,
        ambient=ambient,
        G=G,
        H=H,
        S=S,
        A=A,
        alpha=alpha,
        omega=om,
        graph=graph,
    )
    # D validation needs n
    if config.D is not None and not (1 <= config.D <= inst.n):
        raise ParameterError(f"D={config.D} outside [1, n={inst.n}]")
    return inst


def load_bundle(data: dict) -> Instance:
    """Rebuild the instance recorded in a bundle and cross-check stored facts.

    Construction is deterministic from the config alone; the stored alpha,
    n and graph summary are verified so a tampered bundle cannot silently
    feed later analyses.
    """
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ParameterError(f"unsupported bundle schema {data.get('schema_version')!r}")
    config = InstanceConfig.from_json(data["config"])
    inst = build_instance(config)
    if data.get("n") != inst.n:
        raise ParameterError(f"bundle records n={data.get('n')} but the build gives {inst.n}")
    if data.get("alpha") != inst.alpha.to_json():
        raise ParameterError("bundle records a different free point than the build")
    if data.get("graph") != inst.graph.summary_json():
        raise ParameterError("bundle graph summary disagrees with the build")
    return inst
