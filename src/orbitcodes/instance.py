"""Instance construction: from (p, m, instantiation, gamma, r, D) to a fully
built field, subgroup pair, closure, affine group, orbit and coset graph.

Every fact that differs between the two constructions is a member of
InstanceConfig: the defining polynomial g, |H|, the ambient degree, the
closure size |S|, the weight profile of g^(p^k) and the bound on the
character sum M.

Instantiation I (balanced): G is the root space of X^(p^m) + X^p + X, H is
the multiplicative group of the degree-m subfield, and the ambient field is
the smallest F_(p^l) with l a common multiple of m and the splitting degree
of g (groupgeom.splitting_degree, the order of the companion matrix of g's
p-associate) such that p^l >= |A|.  build_field picks the ambient modulus.

Instantiation II (tunable): G is the degree-m subfield, H the cyclic
subgroup of the degree-(m+1) subfield's multiplicative group of order
gamma*(p^(m+1)-1), and the ambient degree is fixed at 2m(m+1).  gamma must
be the reciprocal of an integer dividing p-1, which makes the order
integral (and keeps |H| above p^m so the weight profile applies).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from orbitcodes.codecore import CodewordStore, MessageSpace, local_maps, message_space
from orbitcodes.cosetgraph import CosetGraph, build_graph
from orbitcodes.errors import ConfigurationError, ParameterError
from orbitcodes.gf import FieldContext, FpSubspace, build_field
from orbitcodes.groupgeom import (
    GroupA,
    ScalingGroup,
    TranslationGroup,
    find_free_point,
    orbit,
    scaling_closure,
    scaling_subgroup,
    splitting_degree,
)
from orbitcodes.numutil import is_prime

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
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
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

    @property
    def h_order(self) -> int:
        """|H|: p^m - 1 for I, gamma * (p^(m+1) - 1) for II (an integer, since 1/gamma divides p - 1)."""
        if self.instantiation == "I":
            return self.p**self.m - 1
        return int(self.gamma * (self.p ** (self.m + 1) - 1))

    @property
    def g(self) -> list[int]:
        """F_p coefficients of the defining polynomial g, little-endian: X^(p^m) + X^p + X for I, X^(p^m) - X for II."""
        p, m = self.p, self.m
        g = [0] * (p**m + 1)
        if self.instantiation == "I":
            g[1] = g[p] = g[p**m] = 1  # m >= 2 keeps the three exponents apart
        else:
            g[1], g[p**m] = p - 1, 1
        return g

    @property
    def ambient_degree(self) -> int:
        """l of the ambient field F_(p^l).

        2m(m+1) for II; for I the first multiple of lcm(splitting degree of g, m) with p^l >= |A|.
        """
        p, m = self.p, self.m
        if self.instantiation == "II":
            return 2 * m * (m + 1)
        base = math.lcm(splitting_degree(self.g, p), m)
        ell = base
        while p**ell < self.closure_size * self.h_order:  # |A| = |S| |H|
            ell += base
        return ell

    @property
    def closure_size(self) -> int:
        """|S|, the size of the closure of G under H: p^(m^2) for I, p^(m(m+1)) for II."""
        p, m = self.p, self.m
        return p ** (m * m) if self.instantiation == "I" else p ** (m * (m + 1))

    def weight(self, k: int) -> int:
        """The h-base degree of g^(p^k).

        Balanced construction: period m with the pattern p^1, ..., p^(m-1)
        capped at p^(m-1) on the last residue.  Tunable construction: period
        m+1 with value p^m on residue 0 and p^(k mod (m+1)) elsewhere.
        """
        if k < 0:
            raise ParameterError("weight index must be nonnegative")
        p, m = self.p, self.m
        if self.instantiation == "I":
            return p ** min(k % m + 1, m - 1)
        return p ** (k % (m + 1) or m)

    @property
    def char_sum_bound(self) -> float:
        """The bound on M, the largest nontrivial character sum over H.

        1 for I (orthogonality), sqrt(p^(m+1)) for II (the Gauss-sum bound).
        """
        return 1.0 if self.instantiation == "I" else math.sqrt(self.p ** (self.m + 1))

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
        """The config of a JSON object: p, m, D, seed integers or integer strings, r, gamma integers or fraction strings.

        Floats and booleans are refused; a float holds the nearest binary fraction, not the rational it spells.
        Only a value that fails to convert is reported as malformed; the config's own checks keep their wording.
        """

        def value(key: str, default, convert):
            raw = data.get(key, default)
            if isinstance(raw, (bool, float)):
                raise ValueError(f"{key}={raw!r} is not an integer or a string")
            return None if raw is None and key in ("D", "gamma") else convert(raw)

        try:
            values = {
                "p": value("p", None, int),
                "m": value("m", None, int),
                "r": value("r", "1/2", Fraction),
                "D": value("D", None, int),
                "gamma": value("gamma", None, Fraction),
                "seed": value("seed", 0, int),
            }
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"malformed config value: {exc}") from None
        return cls(instantiation=data.get("instantiation"), **values)


@dataclass(eq=False)
class Instance:
    """A fully built instance.

    Its fields do not change after construction.  It caches what it
    builds on first use: the message space at each (r, D) asked for, the
    local check maps and the store of the config's basis codewords.
    alpha is the free point's read-only (k,) digit row and omega the
    read-only (n, k) digit array of its orbit: row e is the evaluation
    point of coordinate e and edge e of the graph.
    """

    config: InstanceConfig
    ambient: FieldContext
    G: TranslationGroup
    H: ScalingGroup
    S: FpSubspace
    A: GroupA
    alpha: np.ndarray
    omega: np.ndarray
    graph: CosetGraph

    _ms_cache: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def D(self) -> int:
        """The degree bound: the config's D, or n when the config leaves it open."""
        return self.n if self.config.D is None else self.config.D

    def message_space(self, r: Fraction | None = None, D: int | None = None) -> MessageSpace:
        """The message space at the config's (r, D), or at an override of either; cached per (r, D)."""
        r = self.config.r if r is None else Fraction(r)
        D = self.D if D is None else D
        if not (0 < r < 1):
            raise ParameterError(f"local rate must lie in (0, 1), got {r}")
        if not (1 <= D <= self.n):
            raise ParameterError(f"degree bound D={D} outside [1, n={self.n}]")
        if (r, D) not in self._ms_cache:
            self._ms_cache[r, D] = message_space(self.G, self.H, r, D)
        return self._ms_cache[r, D]

    @functools.cached_property
    def codewords(self) -> CodewordStore:
        """The codewords of the config's message-space basis: inst.codewords(rows) encodes each row at most once."""
        return CodewordStore(self.message_space(), self.omega)

    @functools.cached_property
    def local_maps(self) -> dict:
        """The local check maps of both sides of the graph along the orbit, built on first use."""
        return local_maps(self.ambient, self.graph, self.omega)

    def bundle_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_json(),
            "field": self.ambient.to_json(),
            "G": {"subspace": self.G.points.to_json(), "invariant_poly_degree": len(self.G.g) - 1},
            "H": self.H.to_json(),
            "S": self.S.to_json(),
            "A_size": self.A.size,
            "alpha": self.alpha.tolist(),
            "n": self.n,
            "omega": self.omega.tolist(),
            "graph": self.graph.summary_json(),
        }


def build_instance(config: InstanceConfig) -> Instance:
    """Deterministic construction of the full instance for a config."""
    ambient = build_field(config.p, config.ambient_degree)
    G = TranslationGroup(config.g, ambient)
    H = scaling_subgroup(ambient, config.h_order)

    S = scaling_closure(G, H)
    if S.size != config.closure_size:
        raise ConfigurationError(f"closure size {S.size} differs from the expected {config.closure_size}")
    A = GroupA(S, H)
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


def load_bundle(data) -> Instance:
    """Rebuild the instance recorded in a bundle and cross-check stored facts.

    Construction is deterministic from the config alone; the stored alpha,
    n and graph summary are verified so a tampered bundle cannot silently
    feed later analyses.
    """
    if not isinstance(data, dict):
        raise ParameterError(f"bundle must be a JSON object, got {type(data).__name__}")
    # In Python true == 1 and 48.0 == 48, so each stored integer is also checked to be a JSON integer,
    # and the graph summary's simple flag a JSON boolean.
    if data.get("schema_version") != SCHEMA_VERSION or type(data["schema_version"]) is not int:
        raise ParameterError(f"unsupported bundle schema {data.get('schema_version')!r}")
    config_data = data.get("config")
    if not isinstance(config_data, dict):
        raise ParameterError(f"bundle config must be a JSON object, got {type(config_data).__name__}")
    missing = [key for key in ("instantiation", "p", "m") if key not in config_data]
    if missing:
        raise ParameterError(f"bundle config lacks {', '.join(missing)}")
    config = InstanceConfig.from_json(config_data)
    inst = build_instance(config)
    if data.get("n") != inst.n or type(data["n"]) is not int:
        raise ParameterError(f"bundle records n={data.get('n')!r} but the build gives {inst.n}")
    alpha = data.get("alpha")
    if alpha != inst.alpha.tolist() or not all(type(c) is int for c in alpha):
        raise ParameterError("bundle records a different free point than the build")
    graph, summary = data.get("graph"), inst.graph.summary_json()
    if graph != summary or any(type(graph[key]) is not (bool if key == "simple" else int) for key in summary):
        raise ParameterError("bundle graph summary disagrees with the build")
    return inst
