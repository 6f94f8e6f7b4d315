"""Message space, encoding, local Reed-Solomon verification, and distance.

The message space consists of the polynomials f with deg(f) < D whose
g-base and h-base degrees stay strictly below r|G| and r|H|.  It equals
the intersection of two explicitly spanned coefficient subspaces:

    U = span(X^i g^j : deg < D, i < r|G|)
    V = span(X^i h^j : deg < D, i < r|H|)

and both spanning families have pairwise distinct degrees, so U and V are
cut out exactly.  When the invariant polynomials have prime-subfield
coefficients (every instantiation built here), all of U, V and their
intersection are defined over F_p and the linear algebra runs on fast
integer matrices; dimensions are unchanged by scalar extension.

Strictness convention: every bound of the form deg < r*len is evaluated as
an exact rational comparison.  max_degree_below(r*len) is the largest
integer degree that passes, so at integral r*len the allowed degrees stop
at r*len - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from orbitcodes import fppoly
from orbitcodes.errors import (
    BudgetError,
    ConstraintViolation,
    InternalError,
    ParameterError,
)
from orbitcodes.gf import FieldContext, FieldElement, mul_matrix
from orbitcodes.groupgeom import ScalingGroup, TranslationGroup
from orbitcodes.cosetgraph import CosetGraph
from orbitcodes.linalg import nullspace_mod_p, rref_mod_p
from orbitcodes.polyring import MINUS_INFINITY, Poly, base_degree, lagrange_interpolate

DISTANCE_BUDGET = 1 << 24
LOW_TABLE_BYTES = 1 << 20  # bound on the combined table of the trailing basis rows


def max_degree_below(bound: Fraction | int) -> int:
    """Largest integer strictly below bound (-1 when no nonnegative degree passes)."""
    return math.ceil(bound) - 1


@dataclass(frozen=True)
class CodeParams:
    """Parameters of one code instance."""

    instantiation: str
    p: int
    m: int
    r: Fraction
    D: int
    n: int
    gamma: Fraction | None = None

    def __post_init__(self):
        if self.instantiation not in ("I", "II"):
            raise ParameterError(f"unknown instantiation {self.instantiation!r}")
        if not (0 < self.r < 1):
            raise ParameterError(f"local rate must lie in (0, 1), got {self.r}")
        if not (1 <= self.D <= self.n):
            raise ParameterError(f"degree bound D={self.D} outside [1, n={self.n}]")
        if self.instantiation == "II":
            if self.gamma is None:
                raise ParameterError("instantiation II needs gamma")
            if not (0 < self.gamma <= 1):
                raise ParameterError(f"gamma must lie in (0, 1], got {self.gamma}")
            if (self.gamma * (self.p ** (self.m + 1) - 1)).denominator != 1:
                raise ParameterError(f"gamma={self.gamma} gives a non-integer scaling-group order")

    @property
    def g_size(self) -> int:
        return self.p**self.m

    @property
    def h_order(self) -> int:
        if self.instantiation == "I":
            return self.p**self.m - 1
        return int(self.gamma * (self.p ** (self.m + 1) - 1))

    @property
    def rho(self) -> Fraction:
        return Fraction(self.D, self.n)

    def to_json(self) -> dict:
        return {
            "instantiation": self.instantiation,
            "p": self.p,
            "m": self.m,
            "r": str(self.r),
            "D": self.D,
            "n": self.n,
            "gamma": None if self.gamma is None else str(self.gamma),
        }


@dataclass
class MessageSpace:
    """Basis of the admissible polynomial space, with fast-path metadata."""

    ctx: FieldContext
    D: int
    basis: tuple[Poly, ...]
    dim_u: int
    dim_v: int
    fp_matrix: np.ndarray | None  # (dim, D) prime-field coefficient rows, or None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {"dim": self.dim, "dim_u": self.dim_u, "dim_v": self.dim_v, "D": self.D}


@dataclass(frozen=True)
class Codeword:
    """Evaluation vector over the orbit, indexed like the edge enumeration."""

    values: tuple[FieldElement, ...]

    def __len__(self) -> int:
        return len(self.values)

    def digit_array(self) -> np.ndarray:
        return np.array([v.coeffs for v in self.values], dtype=np.int64)

    def to_json(self) -> list[list[int]]:
        return [v.to_json() for v in self.values]


def _u_row_pairs(glen: int, imax: int, D: int) -> list[tuple[int, int]]:
    pairs = []
    j = 0
    while j * glen < D:
        top = min(imax, D - 1 - j * glen)
        for i in range(top + 1):
            pairs.append((i, j))
        j += 1
    return pairs


def message_space(G: TranslationGroup, H: ScalingGroup, params: CodeParams, verify: bool = True) -> MessageSpace:
    """Exact basis of {f : deg f < D, deg_g f < r|G|, deg_h f < r|H|}.

    Computed as the intersection U cap V of the two constraint subspaces;
    a canonical echelonized basis is returned.  With verify=True each
    basis element is re-checked against all three constraints through an
    independent base expansion.
    """
    ctx = G.ctx
    p = ctx.p
    D, r = params.D, params.r
    glen, hlen = G.size, H.order
    imax_g = max_degree_below(r * glen)
    imax_h = max_degree_below(r * hlen)
    g_ints = G.invariant_poly.int_coeffs()
    bad_cols = [t for t in range(D) if (t % hlen) > imax_h]
    dim_v = D - len(bad_cols)

    if imax_g < 0 or imax_h < 0:
        ms = MessageSpace(ctx, D, (), 0, dim_v, np.zeros((0, D), dtype=np.int64))
    elif g_ints is not None:
        g_arr = fppoly.make(g_ints, p)
        pairs = _u_row_pairs(glen, imax_g, D)
        rows = np.zeros((len(pairs), D), dtype=np.int64)
        gj = fppoly.make([1], p)
        cur_j = 0
        for ridx, (i, j) in enumerate(pairs):
            while cur_j < j:
                gj = fppoly.mul(gj, g_arr, p)
                cur_j += 1
            rows[ridx, i : i + len(gj)] = gj
        if bad_cols:
            combos = nullspace_mod_p(rows[:, bad_cols].T, p)
            wmat = (combos @ rows) % p
        else:
            wmat = rows
        wmat, pivots = rref_mod_p(wmat, p)
        wmat = wmat[: len(pivots)]
        basis = tuple(Poly.from_ints(ctx, [int(c) for c in row]) for row in wmat)
        ms = MessageSpace(ctx, D, basis, len(pairs), dim_v, wmat)
    else:
        ms = _message_space_generic(G, H, params, imax_g, bad_cols, dim_v)

    if verify:
        report = verify_message_space(ms, G, H, params)
        if not report["all_ok"]:
            raise InternalError("message-space basis failed its constraint re-check")
    return ms


def _message_space_generic(G, H, params, imax_g, bad_cols, dim_v) -> MessageSpace:
    """Field-coefficient fallback for invariant polynomials outside F_p[X]."""
    ctx = G.ctx
    D = params.D
    if D > 256:
        raise BudgetError("generic message-space path is desk-scale only (D <= 256)")
    pairs = _u_row_pairs(G.size, imax_g, D)
    zero = ctx.zero()
    rows: list[list[FieldElement]] = []
    gj = Poly.one(ctx)
    cur_j = 0
    for i, j in pairs:
        while cur_j < j:
            gj = gj * G.invariant_poly
            cur_j += 1
        shifted = gj.shift(i)
        rows.append(list(shifted.coeffs) + [zero] * (D - len(shifted.coeffs)))
    # combos alpha with sum alpha_u * rows[u][bad] = 0, Gaussian elimination over F
    columns = [[rows[u][c] for u in range(len(rows))] for c in bad_cols]
    combos = _field_nullspace(columns, len(rows), ctx)
    basis = []
    for combo in combos:
        acc = [zero] * D
        for coef, row in zip(combo, rows):
            if coef.is_zero():
                continue
            for t in range(D):
                if not row[t].is_zero():
                    acc[t] = acc[t] + coef * row[t]
        basis.append(Poly(ctx, acc))
    basis = [b for b in basis if not b.is_zero()]
    return MessageSpace(ctx, D, tuple(basis), len(pairs), dim_v, None)


def _field_nullspace(constraint_columns: list[list[FieldElement]], nvars: int, ctx) -> list[list[FieldElement]]:
    """Kernel basis of the system (columns as constraints) over the field."""
    rows = [list(col) for col in constraint_columns]
    pivots: list[int] = []
    rank = 0
    for col in range(nvars):
        piv = None
        for rr in range(rank, len(rows)):
            if not rows[rr][col].is_zero():
                piv = rr
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [c * inv for c in rows[rank]]
        for rr in range(len(rows)):
            if rr != rank and not rows[rr][col].is_zero():
                f = rows[rr][col]
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(nvars) if c not in pivots]
    one = ctx.one()
    zero = ctx.zero()
    basis = []
    for fc in free:
        vec = [zero] * nvars
        vec[fc] = one
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rows[row_idx][fc]
        basis.append(vec)
    return basis


def constraint_report(f: Poly, G: TranslationGroup, H: ScalingGroup, params: CodeParams) -> dict:
    """The three membership constraints of one polynomial, checked independently.

    Uses the fast prime-field expansion when both f and the invariant
    polynomials are prime-rational, and the generic base expansion
    otherwise; either way the digits come from an actual Euclidean
    expansion, not from how f was constructed.
    """
    r = params.r
    glen, hlen = G.size, H.order
    f_ints = f.int_coeffs()
    g_ints = G.invariant_poly.int_coeffs()
    if f_ints is not None and g_ints is not None:
        p = G.ctx.p
        fa = fppoly.make(f_ints, p)
        dg = fppoly.max_digit_degree(fa, fppoly.make(g_ints, p), p)
        dh = fppoly.max_digit_degree(fa, fppoly.make([0] * hlen + [1], p), p)
    else:
        dg = base_degree(f, G.invariant_poly)
        dh = base_degree(f, H.invariant_poly)
    checks = {
        "degree": (f.degree, params.D, f.degree < params.D),
        "translation_base_degree": (dg, r * glen, dg == MINUS_INFINITY or Fraction(int(dg)) < r * glen),
        "scaling_base_degree": (dh, r * hlen, dh == MINUS_INFINITY or Fraction(int(dh)) < r * hlen),
    }
    return {"checks": checks, "all_ok": all(ok for _, _, ok in checks.values())}


def verify_message_space(ms: MessageSpace, G: TranslationGroup, H: ScalingGroup, params: CodeParams) -> dict:
    entries = []
    for b in ms.basis:
        entries.append(constraint_report(b, G, H, params))
    return {"per_basis": entries, "all_ok": all(e["all_ok"] for e in entries)}


def encode(
    f: Poly,
    omega: Sequence[FieldElement],
    G: TranslationGroup,
    H: ScalingGroup,
    params: CodeParams,
    check: bool = True,
) -> Codeword:
    """Evaluation vector (f(beta) for beta in the orbit).

    The evaluation map is injective on the message space because message
    degrees stay below D <= n and the orbit points are distinct.
    """
    if check:
        rep = constraint_report(f, G, H, params)
        for name, (value, bound, ok) in rep["checks"].items():
            if not ok:
                raise ConstraintViolation(f"{name} violated: {value} must be < {bound}")
    return Codeword(values=tuple(f(x) for x in omega))


def schur_product(cw1: Codeword, cw2: Codeword) -> Codeword:
    """Coordinate-wise product, computed on digit arrays with the field's multiplication tensor."""
    if len(cw1) != len(cw2):
        raise ParameterError("codeword length mismatch")
    if not cw1.values:
        return Codeword(values=())
    ctx = cw1.values[0].ctx
    if cw2.values[0].ctx != ctx:
        raise ParameterError("field context mismatch")
    a, b = cw1.digit_array(), cw2.digit_array()
    k = ctx.k
    outer = (a[:, :, None] * b[:, None, :]).reshape(len(a), k * k)
    return codeword_from_digits(ctx, outer @ ctx.mul_tensor().reshape(k * k, k) % ctx.p)


@dataclass(frozen=True)
class VertexCheck:
    side: str
    index: int
    interp_degree: int | None  # None for the zero restriction
    max_allowed: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "index": self.index,
            "interp_degree": self.interp_degree,
            "max_allowed": self.max_allowed,
            "ok": self.ok,
        }


@dataclass
class LocalCheckReport:
    vertices: list[VertexCheck]
    bounds: dict[str, dict]

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.vertices)

    def failures(self) -> list[VertexCheck]:
        return [v for v in self.vertices if not v.ok]

    def to_json(self) -> dict:
        return {
            "all_ok": self.all_ok,
            "bounds": self.bounds,
            "vertices": [v.to_json() for v in self.vertices],
            "failures": [v.to_json() for v in self.failures()],
            "vertices_checked": len(self.vertices),
        }


def _vertex_edge_lists(graph: CosetGraph) -> tuple[list[list[int]], list[list[int]]]:
    left: list[list[int]] = [[] for _ in range(graph.n_left)]
    right: list[list[int]] = [[] for _ in range(graph.n_right)]
    for e, (l, rr) in enumerate(graph.edges):
        left[l].append(e)
        right[rr].append(e)
    return left, right


def _side_bound_info(r: Fraction, length: int) -> dict:
    bound = r * length
    return {
        "length": length,
        "strict_bound": str(bound),
        "max_allowed_degree": max_degree_below(bound),
        "bound_integral": bound.denominator == 1,
    }


@dataclass(frozen=True)
class _SideMap:
    """Local check map of one side of the graph.

    positions[v, j] is the edge of vertex v at base point j, and coeff_map
    sends the digits of a vertex's values, in base order, to the digits of
    its interpolant's coefficients.
    """

    positions: np.ndarray  # (vertices, L) edge ids
    coeff_map: np.ndarray  # (L*k, L*k) over F_p


def _side_map(edge_lists: list[list[int]], omega: tuple[FieldElement, ...], translate: bool) -> _SideMap:
    """One Lagrange map for a whole side, and the gather that feeds it.

    Vertex 0's points fix the base B: its points minus (translate) or
    divided by its first point.  Every vertex of the side is then
    {a_v + b} or {a_v * b} for b in B, with a_v its first point.  The
    substitution x = a_v + y or x = a_v * y keeps the interpolant's degree,
    so V_B^-1, the Lagrange coefficient matrix of B expanded through
    multiplication matrices, checks every vertex of the side.
    """
    ctx = omega[0].ctx
    p, k = ctx.p, ctx.k
    first = [omega[e] for e in edge_lists[0]]
    if translate:
        base = [x - first[0] for x in first]
    else:
        inv = first[0].inverse()
        base = [x * inv for x in first]
    edges = np.array(edge_lists, dtype=np.int64)
    points = np.array([x.coeffs for x in omega], dtype=np.int64)
    anchors = points[edges[:, 0]]
    base_digits = np.array([b.coeffs for b in base], dtype=np.int64)
    if translate:
        expected = anchors[:, None, :] + base_digits[None]
    else:
        expected = np.einsum("vi,ijl,bj->vbl", anchors, ctx.mul_tensor(), base_digits)
    code = p ** np.arange(k, dtype=np.int64)  # digit vector -> its integer code
    match = ((expected % p) @ code)[:, :, None] == (points[edges] @ code)[:, None, :]
    if not (match.sum(axis=2) == 1).all():
        kind = "translate" if translate else "multiple"
        raise ParameterError(f"graph vertices are not the {kind}s of one base set along omega")
    positions = np.take_along_axis(edges, match.argmax(axis=2), axis=1)

    size = len(base)
    zero, one = ctx.zero(), ctx.one()
    blocks = np.zeros((size, k, size, k), dtype=np.int64)
    for j in range(size):
        unit = [one if i == j else zero for i in range(size)]
        for i, c in enumerate(lagrange_interpolate(base, unit).coeffs):
            blocks[i, :, j, :] = mul_matrix(c)
    return _SideMap(positions=positions, coeff_map=blocks.reshape(size * k, size * k))


def _local_maps(graph: CosetGraph, omega: Sequence[FieldElement]) -> dict[str, _SideMap]:
    """Both side maps of a graph, built on the first check and cached on it."""
    omega = tuple(omega)
    if graph.local_maps is None or graph.local_maps[0] != omega:
        left, right = _vertex_edge_lists(graph)
        maps = {"left": _side_map(left, omega, translate=True), "right": _side_map(right, omega, translate=False)}
        graph.local_maps = (omega, maps)
    return graph.local_maps[1]


def _vertex_degrees(side: _SideMap, digits: np.ndarray, p: int) -> np.ndarray:
    """Interpolant degree at every vertex of a side (-1 for a zero restriction)."""
    vals = digits[side.positions]
    nv, size, k = vals.shape
    coeffs = (vals.reshape(nv, size * k) @ side.coeff_map.T) % p
    nonzero = coeffs.reshape(nv, size, k).any(axis=2)
    top = size - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), top, -1)


def check_local_rs(
    cw: Codeword,
    graph: CosetGraph,
    omega: Sequence[FieldElement],
    params: CodeParams,
    doubled: bool = False,
) -> LocalCheckReport:
    """Interpolate the restriction at every vertex and check its degree.

    On each translation orbit (left vertex) the restriction of a codeword
    must interpolate to degree < r|G|, symmetrically with r|H| on the
    right; this is exactly the local Reed-Solomon membership.  With
    doubled=True the Schur bound deg < 2*ceil(r*len) - 1 is applied
    instead, for coordinate-wise products.  The interpolants of all
    vertices of a side come from one matrix product (see _side_map).
    """
    if len(cw) != graph.edge_count or len(omega) != graph.edge_count:
        raise ParameterError("codeword/orbit length does not match the edge count")
    bounds = {
        "left": _side_bound_info(params.r, graph.left_degree),
        "right": _side_bound_info(params.r, graph.right_degree),
    }
    maps = _local_maps(graph, omega)
    digits = cw.digit_array()
    p = omega[0].ctx.p
    vertices = []
    for side in ("left", "right"):
        allowed = bounds[side]["max_allowed_degree"]
        if doubled:
            allowed = 2 * allowed
        for vi, d in enumerate(_vertex_degrees(maps[side], digits, p).tolist()):
            vertices.append(
                VertexCheck(
                    side=side,
                    index=vi,
                    interp_degree=None if d < 0 else d,
                    max_allowed=allowed,
                    ok=d <= allowed,
                )
            )
    return LocalCheckReport(vertices=vertices, bounds=bounds)


def schur_check(
    cw1: Codeword,
    cw2: Codeword,
    graph: CosetGraph,
    omega: Sequence[FieldElement],
    params: CodeParams,
) -> LocalCheckReport:
    """Doubled-degree local check for the coordinate-wise product."""
    return check_local_rs(schur_product(cw1, cw2), graph, omega, params, doubled=True)


# -- fast batch encoding -------------------------------------------------------


def _power_tensor(omega: Sequence[FieldElement], D: int) -> np.ndarray:
    """digits of omega_i^t for all points and t < D, shape (n, D, k)."""
    ctx = omega[0].ctx
    n, k, p = len(omega), ctx.k, ctx.p
    mats = np.stack([mul_matrix(w) for w in omega])
    out = np.zeros((n, D, k), dtype=np.int64)
    cur = np.zeros((n, k), dtype=np.int64)
    cur[:, 0] = 1
    for t in range(D):
        out[:, t, :] = cur
        cur = np.einsum("nij,nj->ni", mats, cur) % p
    return out


def encode_basis_digits(ms: MessageSpace, omega: Sequence[FieldElement]) -> np.ndarray:
    """Digit tensor (dim, n, k) of all basis codewords.

    Uses the vectorized prime-rational path when available, otherwise
    scalar Horner evaluation per basis polynomial.
    """
    ctx = ms.ctx
    n, k = len(omega), ctx.k
    if ms.dim == 0:
        return np.zeros((0, n, k), dtype=np.int64)
    if ms.fp_matrix is not None:
        tensor = _power_tensor(omega, ms.D)
        return np.einsum("bd,ndk->bnk", ms.fp_matrix, tensor) % ctx.p
    rows = np.zeros((ms.dim, n, k), dtype=np.int64)
    for bi, poly in enumerate(ms.basis):
        for oi, x in enumerate(omega):
            rows[bi, oi] = poly(x).coeffs
    return rows


def codeword_from_digits(ctx: FieldContext, digits: np.ndarray) -> Codeword:
    """Codeword from an (n, k) digit array."""
    digits = np.asarray(digits, dtype=np.int64)
    if digits.ndim != 2 or digits.shape[1] != ctx.k:
        raise ParameterError(f"digit array must have shape (n, {ctx.k}), got {digits.shape}")
    rows = (digits % ctx.p).tolist()
    return Codeword(values=tuple(FieldElement(ctx, tuple(row)) for row in rows))


# -- minimum distance ------------------------------------------------------------


@dataclass(frozen=True)
class DistanceResult:
    value: int
    mode: str  # "full-field" or "prime-subcode"
    enumerated: int
    dim: int

    def to_json(self) -> dict:
        return {"value": self.value, "mode": self.mode, "enumerated": self.enumerated, "dim": self.dim}


def min_distance_exhaustive(
    ms: MessageSpace,
    omega: Sequence[FieldElement],
    G: TranslationGroup,
    H: ScalingGroup,
    params: CodeParams,
    budget: int = DISTANCE_BUDGET,
) -> DistanceResult:
    """Minimum Hamming weight by exhaustive message enumeration.

    Enumerates the full field-linear code when |F|^dim fits the budget.
    Otherwise, when the basis is prime-rational and p^dim fits, it
    exhausts the prime-rational subcode exactly; that value upper-bounds
    the code distance while every lower bound proved for the code applies
    to it, and the mode is recorded so reports stay honest about which
    set was enumerated.
    """
    ctx = ms.ctx
    if ms.dim == 0:
        raise ParameterError("zero-dimensional code has no minimum distance")
    q = ctx.order
    p = ctx.p
    if q**ms.dim <= budget:
        scalars = list(ctx.element_list())
        mode = "full-field"
        enumerated = q**ms.dim
    elif ms.fp_matrix is not None and p**ms.dim <= budget:
        scalars = [ctx.from_int(c) for c in range(p)]
        mode = "prime-subcode"
        enumerated = p**ms.dim
    else:
        raise BudgetError(
            f"|F|^dim = {q}^{ms.dim} exceeds the enumeration budget {budget}; "
            "use min_distance_sampled for a lower-confidence estimate"
        )
    rows = encode_basis_digits(ms, omega)
    tables = _scalar_tables(rows, ctx, scalars, prime_only=(mode == "prime-subcode"))
    value = _min_weight_chunked(tables, p)
    return DistanceResult(value=value, mode=mode, enumerated=enumerated, dim=ms.dim)


def _scalar_tables(rows: np.ndarray, ctx: FieldContext, scalars, prime_only: bool) -> list[np.ndarray]:
    """Per basis row, the digits (len(scalars), n, k) of every scalar multiple."""
    p = ctx.p
    if prime_only:
        return [(np.arange(p, dtype=np.int64)[:, None, None] * row[None]) % p for row in rows]
    mats = np.stack([mul_matrix(c) for c in scalars])
    return [np.einsum("cij,nj->cni", mats, row) % p for row in rows]


def _pack(digits: np.ndarray) -> np.ndarray:
    """uint8 digits (..., n, k), each element zero-padded to whole 64-bit words."""
    k = digits.shape[-1]
    out = np.zeros(digits.shape[:-1] + (-(-k // 8) * 8,), dtype=np.uint8)
    out[..., :k] = digits
    return out


def _add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Digit-wise a + b mod p on packed uint8 arrays (word-wise XOR when p = 2)."""
    if p == 2:
        return (a.view(np.uint64) ^ b.view(np.uint64)).view(np.uint8)
    s = a + b
    np.subtract(s, p, out=s, where=s >= p)
    return s


def _min_weight_chunked(tables: list[np.ndarray], p: int) -> int:
    """Minimum weight over all combinations of one entry per table, except all zeros.

    Entry 0 of every table is the zero multiple.  The trailing tables are
    combined into one low table of at most LOW_TABLE_BYTES; the loop runs
    over the combinations (prefixes) of the leading tables, in odometer
    order, and weighs prefix + every low entry at once.  A coordinate of
    prefix + low is zero iff low equals -prefix there, so with the
    leading tables negated up front the weight is a count of the
    coordinates whose 64-bit words differ from the prefix's.
    """
    if p >= 128:
        raise ParameterError(f"packed enumeration needs p < 128, got {p}")
    packed = [_pack(t) for t in tables]
    lead = len(packed) - 1
    low = packed[lead]
    while lead > 0 and packed[lead - 1].shape[0] * low.nbytes <= LOW_TABLE_BYTES:
        lead -= 1
        low = _add_mod(packed[lead][:, None], low[None], p).reshape((-1,) + low.shape[1:])
    low_words = np.ascontiguousarray(low.view(np.uint64).transpose(2, 0, 1))  # (words, entries, n)
    negated = [(p - t) % p for t in packed[:lead]]
    n = low.shape[1]

    best = n
    choice = [0] * lead
    sums = [np.zeros_like(low[0])] * (lead + 1)  # sums[i]: chosen entries of the first i tables
    stale = 0
    while True:
        for i in range(stale, lead):
            sums[i + 1] = _add_mod(sums[i], negated[i][choice[i]], p)
        prefix = sums[lead].view(np.uint64).T
        differs = low_words[0] != prefix[0]
        for w in range(1, len(prefix)):
            differs |= low_words[w] != prefix[w]
        weights = np.count_nonzero(differs, axis=1)
        if not any(choice):
            weights = weights[1:]  # the zero prefix with the zero low entry is the zero codeword
        if weights.size:
            best = min(best, int(weights.min()))
        stale = lead - 1
        while stale >= 0 and choice[stale] == len(negated[stale]) - 1:
            choice[stale] = 0
            stale -= 1
        if stale < 0:
            return best
        choice[stale] += 1


def min_distance_sampled(
    ms: MessageSpace,
    omega: Sequence[FieldElement],
    samples: int = 100_000,
    seed: int = 0,
) -> int:
    """Smallest weight among random nonzero field-linear codewords (upper bound)."""
    ctx = ms.ctx
    rng = np.random.default_rng(seed)
    rows = encode_basis_digits(ms, omega)
    scalars = list(ctx.element_list())
    tables = _scalar_tables(rows, ctx, scalars, prime_only=False)
    best = len(omega)
    chunk = 8192
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        codes = rng.integers(0, ctx.order, size=(b, ms.dim))
        codes[(codes == 0).all(axis=1), 0] = 1
        acc = np.zeros((b, rows.shape[1], ctx.k), dtype=np.int64)
        for t, tab in enumerate(tables):
            acc += tab[codes[:, t]]
        weights = (acc % ctx.p).any(axis=2).sum(axis=1)
        best = min(best, int(weights.min()))
        done += b
    return best


# -- weight profile of Frobenius powers ----------------------------------------


def weight_closed_form(k: int, p: int, m: int, instantiation: str) -> int:
    """Closed-form h-base degree of g^(p^k) for the two instantiations.

    Balanced construction: period m with the pattern p^1, ..., p^(m-1)
    capped at p^(m-1) on the last residue.  Tunable construction: period
    m+1 with value p^m on residue 0 and p^(k mod (m+1)) elsewhere.
    """
    if k < 0:
        raise ParameterError("weight index must be nonnegative")
    if instantiation == "I":
        b = k % m
        return p ** (m - 1) if b == m - 1 else p ** (b + 1)
    if instantiation == "II":
        t = k % (m + 1)
        return p**m if t == 0 else p**t
    raise ParameterError(f"unknown instantiation {instantiation!r}")


def weight_direct(k: int, p: int, m: int, instantiation: str, gamma: Fraction = Fraction(1)) -> int:
    """Oracle: deg_h(g^(p^k)) computed by literal base expansion over F_p."""
    if instantiation == "I":
        g = [0] * (p**m + 1)
        g[0] = 0
        g[1] = 1
        g[p] = (g[p] + 1) % p
        g[p**m] = (g[p**m] + 1) % p
        hlen = p**m - 1
    elif instantiation == "II":
        g = [0] * (p**m + 1)
        g[1] = -1 % p
        g[p**m] = 1
        hlen = int(gamma * (p ** (m + 1) - 1))
    else:
        raise ParameterError(f"unknown instantiation {instantiation!r}")
    garr = fppoly.make(g, p)
    f = fppoly.power(garr, p**k, p)
    h = fppoly.make([0] * hlen + [1], p)
    d = fppoly.max_digit_degree(f, h, p)
    if d == float("-inf"):
        raise InternalError("Frobenius power of g vanished")
    return int(d)


# -- admissible monomial counting ------------------------------------------------


def _digit_weight_sum(i: int, p: int, m: int, instantiation: str) -> int:
    total = 0
    k = 0
    while i:
        digit = i % p
        if digit:
            total += digit * weight_closed_form(k, p, m, instantiation)
        i //= p
        k += 1
    return total


def monomial_count(params: CodeParams, r: Fraction | None = None) -> int:
    """Number of monomials g^i X^j passing the digit-weighted constraints.

    The local constraint bounds j plus the p-adic-digit-weighted sum of i
    by r|H| (subadditivity makes this sufficient for true h-base-degree
    membership); the global constraint bounds the monomial degree by D.
    Counted monomials have pairwise distinct degrees, so the count lower
    bounds the message-space dimension.  The r override admits degenerate
    rates (r <= 0 counts nothing) without relaxing CodeParams validation.
    """
    return sum(1 for _ in admissible_monomials(params, r=r))


def admissible_monomials(params: CodeParams, r: Fraction | None = None) -> Iterator[tuple[int, int]]:
    p, m, D = params.p, params.m, params.D
    r = params.r if r is None else Fraction(r)
    if r <= 0:
        return
    glen = params.g_size
    hbound = r * params.h_order
    jcap_g = max_degree_below(r * glen) if params.instantiation == "II" else None
    for i in range((D - 1) // glen + 1):
        w = _digit_weight_sum(i, p, m, params.instantiation)
        jmax = max_degree_below(hbound - w)
        jmax = min(jmax, D - 1 - i * glen)
        if jcap_g is not None:
            jmax = min(jmax, jcap_g)
        for j in range(jmax + 1):
            yield (i, j)


def monomial_is_sound(i: int, j: int, params: CodeParams) -> bool:
    """Direct check (no subadditivity shortcut) that g^i X^j is admissible."""
    p, m = params.p, params.m
    glen = params.g_size
    if params.instantiation == "I":
        g = [0] * (glen + 1)
        g[1] = 1
        g[p] = (g[p] + 1) % p
        g[glen] = (g[glen] + 1) % p
    else:
        g = [0] * (glen + 1)
        g[1] = -1 % p
        g[glen] = 1
    garr = fppoly.make(g, p)
    f = fppoly.shift(fppoly.power(garr, i, p), j)
    if fppoly.deg(f) >= params.D:
        return False
    dh = fppoly.max_digit_degree(f, fppoly.make([0] * params.h_order + [1], p), p)
    if dh != float("-inf") and not Fraction(int(dh)) < params.r * params.h_order:
        return False
    dg = fppoly.max_digit_degree(f, garr, p)
    if dg != float("-inf") and not Fraction(int(dg)) < params.r * glen:
        return False
    return True
