"""Message space, encoding, local Reed-Solomon verification, and distance.

The message space consists of the polynomials f with deg(f) < D whose
g-base and h-base degrees stay strictly below r|G| and r|H|.  It is the
intersection of two coefficient subspaces, each cut out by its digit
constraints:

    U = {f : every base-g digit of f has degree < r|G|}
    V = {f : every base-X^|H| digit of f has degree < r|H|}

V is the vectors that vanish at every degree t with t mod |H| at or
above r|H|.  U is the kernel of the base-g digit map (fppoly.digit_chunks)
restricted to the digit columns c with c mod |G| at or above r|G|.  G is
the root space of its defining polynomial g in F_p[X]
(TranslationGroup), so U, V and their intersection are defined over F_p
and one F_p kernel computes it.

Polynomials are (rows, L) arrays of F_p coefficients, lowest degree
first: the message-space basis, and the rows that constraint_report
checks and encode_basis_digits encodes.  Only encode takes field
coefficients, and it splits them into such rows.  Codewords are (n, k)
digit arrays.  Encoding is gf.power_sums, on packed words at p = 2 and
one linalg.matmul_mod_p otherwise; every other F_p product on them is
one linalg.matmul_mod_p, on plain matrices or on stacks of per-point
product matrices (gf.product_matrices), or one gf.mul_rows.  A field
scalar s acts on a codeword w through its product matrix R_s, so the
full-field distance's generators x^a * w are the rows of w's R_w, and
the sampled codewords are the basis codewords times their scalars' R_s.
A CodewordStore encodes
each basis row of a message space at most once; the exhaustive and the
sampled distance read their codewords from it.  The exhaustive distance
weighs no codeword: a message m vanishes at coordinate j iff it lies in
the kernel of the generators' digits at j, so its weight is n minus the
number of such kernels, and linalg.kernel_counts counts them for every
m, one bounded slab of messages at a time.

Strictness convention: every bound of the form deg < r*len is evaluated as
an exact rational comparison.  max_degree_below(r*len) is the largest
integer degree that passes, so at integral r*len the allowed degrees stop
at r*len - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from orbitcodes import fppoly
from orbitcodes.errors import (
    DEFAULT_BUDGETS,
    BudgetError,
    ConstraintViolation,
    InternalError,
    ParameterError,
)
from orbitcodes.gf import FieldContext, base_p_digits, digit_codes, mul_rows, pow_rows, power_sums, power_table, product_matrices
from orbitcodes.groupgeom import ScalingGroup, TranslationGroup
from orbitcodes.cosetgraph import CosetGraph
from orbitcodes.linalg import INT64_LIMIT, kernel_counts, matmul_mod_p, nullspace_mod_p, rref_mod_p

# Selects the full field when |F|*n*k*8 bytes fit; kept so that modes and report bytes stay fixed, it sizes
# no table: the full field allocates dim*n*k^2 generator digits and counter slabs, and a rule on those
# bytes would be a separate, byte-changing change.
LOW_TABLE_BYTES = 1 << 20
ENCODE_CHUNK_ENTRIES = 1 << 20  # bound on the power table of one chunk of orbit points
SAMPLE_CHUNK_ENTRIES = 1 << 22  # bound on the digits of one chunk of sampled codewords


def max_degree_below(bound: Fraction | int) -> int:
    """Largest integer strictly below bound (-1 when no nonnegative degree passes)."""
    return math.ceil(bound) - 1


@dataclass
class MessageSpace:
    """Basis of the admissible polynomial space as one coefficient array.

    coeffs[b, t] is the F_p coefficient of X^t in basis polynomial b, and
    verification is the basis's constraint_report.
    """

    ctx: FieldContext
    D: int
    coeffs: np.ndarray  # (dim, D) int64
    dim_u: int
    dim_v: int
    verification: dict

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def message_space(G: TranslationGroup, H: ScalingGroup, r: Fraction, D: int) -> MessageSpace:
    """Exact basis of {f : deg f < D, deg_g f < r|G|, deg_h f < r|H|}.

    V is the coefficient vectors that vanish on the columns t with t mod
    |H| above the scaling bound.  U is the kernel of the base-g digit map
    on its bad digit columns: the base-g digits of f are f times the
    digit matrix E, whose row t holds the digits of X^t
    (fppoly.digit_chunks), and digit j sits in columns j*|G| to
    (j+1)*|G| - 1, so f lies in U iff f*E vanishes on the columns c < D
    with c mod |G| above the translation bound.  U cap V is therefore one
    kernel, of E's block of V's rows and U's bad columns, gathered chunk
    by chunk.  The basis is its RREF, on V's columns alone (the others
    are zero and hold no pivot), written into a zero (dim, D) array.

    Every basis row is then re-checked against all three constraints by one
    batched base expansion per base (constraint_report); the result is
    stored as ms.verification and a failure raises InternalError.
    """
    p = G.ctx.p
    good = np.flatnonzero(np.arange(D) % H.order <= max_degree_below(r * H.order))  # V's columns
    bad = np.flatnonzero(np.arange(D) % G.size > max_degree_below(r * G.size))  # U's excluded digit columns
    block = np.zeros((len(bad), len(good)), dtype=np.min_scalar_type(p - 1))  # E's block, transposed
    for lo, chunk in fppoly.digit_chunks(G.g, D, p):
        at = slice(*np.searchsorted(good, [lo, lo + len(chunk)]))
        block[:, at] = chunk[np.ix_(good[at] - lo, bad)].T
    reduced = rref_mod_p(nullspace_mod_p(block, p), p)[0]
    basis = np.zeros((len(reduced), D), dtype=np.int64)
    basis[:, good] = reduced
    del block, reduced  # before the re-check, whose peak memory would hold them
    verification = constraint_report(basis, G, H, r, D)
    if not verification["all_ok"]:
        raise InternalError("message-space basis failed its constraint re-check")
    return MessageSpace(G.ctx, D, basis, D - len(bad), len(good), verification)


def _last_nonzero(mask: np.ndarray) -> np.ndarray:
    """Index of the last True of every row of a 2-d mask, -1 for a row with none: int64, found in int32."""
    return np.where(mask, np.arange(mask.shape[1], dtype=np.int32), -1).max(axis=1, initial=-1).astype(np.int64)


def constraint_report(coeffs: np.ndarray, G: TranslationGroup, H: ScalingGroup, r: Fraction, D: int) -> dict:
    """The three membership constraints of every row of a (rows, L) array of F_p coefficients.

    Each check maps to (per-row values, bound, per-row pass flags): the
    degree, and the largest digit degree in base g and in base X^|H|.  The
    digits come from one batched Euclidean expansion per base
    (fppoly.expansion_degrees), not from how the rows were built.  A zero
    row has no digits (degree -infinity, written -1) and passes every
    check.  The rows are reduced once, into the narrowest unsigned type
    that holds p - 1, and every check reads that copy; the values are
    int64.
    """
    p = G.ctx.p
    digits = np.empty(np.shape(coeffs), dtype=np.min_scalar_type(p - 1))
    np.remainder(coeffs, p, out=digits, casting="unsafe")
    values = {
        "degree": (_last_nonzero(digits != 0), D),
        "translation_base_degree": (fppoly.expansion_degrees(digits, G.g, p), r * G.size),
        "scaling_base_degree": (fppoly.expansion_degrees(digits, [0] * H.order + [1], p), r * H.order),
    }
    checks = {name: (v, bound, v <= max_degree_below(bound)) for name, (v, bound) in values.items()}
    return {"checks": checks, "all_ok": all(bool(ok.all()) for _, _, ok in checks.values())}


def encode(
    coeffs: np.ndarray,
    omega: np.ndarray,
    G: TranslationGroup,
    H: ScalingGroup,
    r: Fraction,
    D: int,
) -> np.ndarray:
    """The (n, k) digit array of f(beta) for beta in the orbit, after checking f's constraints.

    f is given by its (L, c) coefficient digit array, lowest degree first,
    with c = 1 (F_p coefficients) or c = k (field coefficients), and omega
    is the (n, k) orbit digit array.  f = sum_a x^a f_a for its c digit
    polynomials f_a in F_p[X] and the powers x^a of the field generator.
    Both bases lie in F_p[X], so f's degree and base degrees are the
    largest of its digit polynomials', and f's codeword is
    sum_a x^a (f_a's codeword), one F_p product with mul_tensor()[:c],
    the product matrices of 1, x, ..., x^(c-1).
    The evaluation map is injective on the message space because message
    degrees stay below D <= n and the orbit points are distinct.
    """
    ctx = G.ctx
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.ndim != 2 or coeffs.shape[1] not in (1, ctx.k):
        raise ParameterError(f"message coefficients must be an (L, 1) or (L, {ctx.k}) array, got shape {coeffs.shape}")
    digit_polys = coeffs.T
    rep = constraint_report(digit_polys, G, H, r, D)
    for name, (values, bound, ok) in rep["checks"].items():
        if not ok.all():
            raise ConstraintViolation(f"{name} violated: {values.max()} must be < {bound}")
    words = encode_basis_digits(ctx, digit_polys, omega)  # (c, n, k)
    c, n, k = words.shape
    return matmul_mod_p(words.transpose(1, 0, 2).reshape(n, c * k), ctx.mul_tensor()[:c].reshape(c * k, k), ctx.p)


def schur_product(ctx: FieldContext, cw1: np.ndarray, cw2: np.ndarray) -> np.ndarray:
    """Coordinate-wise product of two (n, k) codeword digit arrays (gf.mul_rows)."""
    if np.shape(cw1) != np.shape(cw2):
        raise ParameterError("codeword length mismatch")
    return mul_rows(ctx, cw1, cw2)


@dataclass
class LocalCheckReport:
    """Interpolant degree at every vertex, left vertices first (-1 for a zero restriction)."""

    vertices: np.ndarray  # (n_left + n_right,) int64
    n_left: int
    allowed: tuple[int, int]  # largest passing degree on the left and on the right
    bounds: dict[str, dict]

    @property
    def ok(self) -> np.ndarray:
        """Per-vertex pass flags."""
        return self.vertices <= np.where(np.arange(len(self.vertices)) < self.n_left, *self.allowed)

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())

    def _vertex_dicts(self) -> list[dict]:
        """The JSON of every vertex: side, index on its side, degree (None for a zero restriction), bound, flag."""
        n_left = self.n_left
        return [
            {
                "side": "left" if i < n_left else "right",
                "index": i if i < n_left else i - n_left,
                "interp_degree": None if d < 0 else d,
                "max_allowed": self.allowed[i >= n_left],
                "ok": ok,
            }
            for i, (d, ok) in enumerate(zip(self.vertices.tolist(), self.ok.tolist()))
        ]

    def failures(self) -> list[dict]:
        return [v for v in self._vertex_dicts() if not v["ok"]]

    def to_json(self) -> dict:
        vertices = self._vertex_dicts()
        return {
            "all_ok": self.all_ok,
            "bounds": self.bounds,
            "vertices": vertices,
            "failures": [v for v in vertices if not v["ok"]],
            "vertices_checked": len(vertices),
        }


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


def _side_map(ctx: FieldContext, edges: np.ndarray, omega: np.ndarray, translate: bool) -> _SideMap:
    """One Lagrange map for a whole side, and the gather that feeds it.

    Vertex 0's points fix the base B: its points minus (translate) or
    divided by its first point.  Every vertex of the side is then
    {a_v + b} or {a_v * b} for b in B, with a_v its first point.  The
    substitution x = a_v + y or x = a_v * y keeps the interpolant's degree,
    so V_B^-1 checks every vertex of the side.  V_B, the Vandermonde matrix
    of B expanded to F_p, sends coefficient digits (i, a) to value digits
    (j, l) through the product matrices of the powers b_j^i (gf); one
    rref_mod_p of [V_B | I] gives [I | V_B^-1].
    """
    p, k = ctx.p, ctx.k
    first, anchors = omega[edges[0]], omega[edges[:, 0]]
    if translate:
        base_points = (first - first[0]) % p
        expected = anchors[:, None, :] + base_points[None]
    else:
        base_points = mul_rows(ctx, first, pow_rows(ctx, first[0], ctx.order - 2))  # first / first[0]
        expected = mul_rows(ctx, anchors[:, None, :], base_points[None])
    match = digit_codes(expected % p, p)[:, :, None] == digit_codes(omega[edges], p)[:, None, :]
    if not (match.sum(axis=2) == 1).all():
        kind = "translate" if translate else "multiple"
        raise ParameterError(f"graph vertices are not the {kind}s of one base set along omega")
    positions = np.take_along_axis(edges, match.argmax(axis=2), axis=1)

    width = len(base_points) * k
    vander = product_matrices(ctx, power_table(ctx, base_points, len(base_points))).transpose(0, 3, 1, 2)
    reduced, pivots = rref_mod_p(np.hstack([vander.reshape(width, width), np.eye(width, dtype=np.int64)]), p)
    if pivots != list(range(width)):
        raise InternalError("the base points of a side are not distinct")
    return _SideMap(positions=positions, coeff_map=reduced[:, width:])


def local_maps(ctx: FieldContext, graph: CosetGraph, omega: np.ndarray) -> dict[str, _SideMap]:
    """The side maps of a graph's left and right vertices (graph.incidence) along its (n, k) orbit digit array."""
    left, right = graph.incidence
    return {"left": _side_map(ctx, left, omega, translate=True), "right": _side_map(ctx, right, omega, translate=False)}


def _vertex_degrees(side: _SideMap, digits: np.ndarray, p: int) -> np.ndarray:
    """Interpolant degree at every vertex of a side (-1 for a zero restriction)."""
    vals = digits[side.positions]
    nv, size, k = vals.shape
    coeffs = matmul_mod_p(vals.reshape(nv, size * k), side.coeff_map.T, p)
    return _last_nonzero(coeffs.reshape(nv, size, k).any(axis=2))


def check_local_rs(
    ctx: FieldContext,
    cw: np.ndarray,
    maps: dict[str, _SideMap],
    r: Fraction,
    doubled: bool = False,
) -> LocalCheckReport:
    """Interpolate the restriction at every vertex and check its degree.

    On each translation orbit (left vertex) the restriction of a codeword
    must interpolate to degree < r|G|, symmetrically with r|H| on the
    right; this is exactly the local Reed-Solomon membership.  With
    doubled=True the Schur bound deg < 2*ceil(r*len) - 1 is applied
    instead, for coordinate-wise products.  The interpolants of all
    vertices of a side come from one matrix product with that side's map
    (local_maps), and the report holds the two sides' degree arrays as one.
    The codeword is an (n, k) digit array indexed by edge.
    """
    left = maps["left"].positions
    shape = (left.size, ctx.k)  # every edge lies at one left vertex
    if np.shape(cw) != shape:
        raise ParameterError(f"codeword must be a digit array of shape {shape}")
    bounds = {side: _side_bound_info(r, side_map.positions.shape[1]) for side, side_map in maps.items()}
    digits = np.asarray(cw, dtype=np.int64) % ctx.p
    factor = 2 if doubled else 1
    return LocalCheckReport(
        vertices=np.concatenate([_vertex_degrees(maps[side], digits, ctx.p) for side in bounds]),
        n_left=len(left),
        allowed=tuple(factor * b["max_allowed_degree"] for b in bounds.values()),
        bounds=bounds,
    )


def schur_check(
    ctx: FieldContext,
    cw1: np.ndarray,
    cw2: np.ndarray,
    maps: dict[str, _SideMap],
    r: Fraction,
) -> LocalCheckReport:
    """Doubled-degree local check for the coordinate-wise product."""
    return check_local_rs(ctx, schur_product(ctx, cw1, cw2), maps, r, doubled=True)


# -- fast batch encoding -------------------------------------------------------


def encode_basis_digits(ctx: FieldContext, coeffs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Digit tensor (rows, n, k) of the codewords of a (rows, D) F_p coefficient array on an (n, k) orbit array.

    The codeword of row b at beta is sum_t coeffs[b, t] * beta^t, the
    power sum gf.power_sums of the row at beta.  Orbit points are taken in
    chunks whose power table (gf.power_table) would hold at most
    ENCODE_CHUNK_ENTRIES digits.  The digits are stored in the narrowest
    integer type that holds p - 1.
    """
    D = coeffs.shape[1]
    chunk = max(1, ENCODE_CHUNK_ENTRIES // (max(D, 1) * ctx.k))
    return power_sums(ctx, np.asarray(coeffs) % ctx.p, omega, chunk)


@dataclass(eq=False)
class CodewordStore:
    """The codewords of a message space's basis rows on an (n, k) orbit array, each row encoded at most once.

    store(rows) is the (len(rows), n, k) digit array of the codewords of
    the listed basis rows, in that order and with any repeats.  The rows
    not held yet are encoded first, all in one encode_basis_digits call,
    and kept; the result is a copy, so the held rows never change.
    store(rows, out) copies them into out instead, a (len(rows), n, k)
    array or view of any layout, and returns it.
    """

    ms: MessageSpace
    omega: np.ndarray
    _held: dict = field(default_factory=dict, repr=False)  # basis row -> its (n, k) codeword

    @property
    def n(self) -> int:
        return len(self.omega)

    def __call__(self, rows, out: np.ndarray | None = None) -> np.ndarray:
        ctx, rows = self.ms.ctx, [int(b) for b in rows]
        if not all(0 <= b < self.ms.dim for b in rows):
            raise ParameterError(f"basis rows must lie in [0, {self.ms.dim})")
        missing = sorted(set(rows).difference(self._held))
        if missing:
            self._held.update(zip(missing, encode_basis_digits(ctx, self.ms.coeffs[missing], self.omega)))
        if out is None:
            out = np.empty((len(rows), self.n, ctx.k), dtype=np.min_scalar_type(ctx.p - 1))
        for i, b in enumerate(rows):
            out[i] = self._held[b]
        return out


# -- minimum distance ------------------------------------------------------------


@dataclass(frozen=True)
class DistanceResult:
    value: int
    mode: str  # "full-field" or "prime-subcode"
    enumerated: int


def min_distance_exhaustive(
    codewords: CodewordStore,
    budget: int = DEFAULT_BUDGETS["distance"],
) -> DistanceResult:
    """Minimum Hamming weight of the code of a codeword store's message space, by exhaustive message enumeration.

    Enumerates the full field-linear code when |F|^dim fits the budget and
    |F|*n*k*8 bytes fit LOW_TABLE_BYTES.  Otherwise, when p^dim fits, it
    exhausts the prime-rational subcode (the F_p span of the basis)
    exactly; that value upper-bounds the code distance while every lower
    bound proved for the code applies to it, and the mode is recorded so
    reports stay honest about which set was enumerated.  A count fits
    when it is within the budget and below 2^63, the int64 limit of the
    message codes (linalg.kernel_counts).  LOW_TABLE_BYTES is kept so that
    modes and report bytes stay fixed; the full field allocates dim*n*k^2
    generator digits plus counter slabs, and a rule on those bytes would
    be a separate, byte-changing change.
    The budget is checked first, so a refusal encodes nothing; then every
    basis codeword is read from the store, which encodes those it does
    not hold yet.  The enumerated code is the F_p span of its generators
    (_min_weight): the basis codewords in the prime subcode, and in the
    full field their dim*k multiples x^a * w, the rows of their product
    matrices (gf.product_matrices).
    """
    ms = codewords.ms
    ctx = ms.ctx
    if ms.dim == 0:
        raise ParameterError("zero-dimensional code has no minimum distance")
    q, p, n = ctx.order, ctx.p, codewords.n
    limit = min(budget, INT64_LIMIT - 1)
    if q**ms.dim <= limit and q * n * ctx.k * 8 <= LOW_TABLE_BYTES:
        scalars, mode = q, "full-field"
    elif p**ms.dim <= limit:
        scalars, mode = p, "prime-subcode"
    else:
        reason = (
            f"|F|^dim = {q}^{ms.dim} exceeds the enumeration budget {budget}"
            if p**ms.dim > budget
            else f"p^dim = {p}^{ms.dim} messages reach 2^63, the int64 limit of their codes"
        )
        raise BudgetError(f"{reason}; min_distance_sampled (--sample) gives an upper bound instead")
    generators = codewords(range(ms.dim))
    if mode == "full-field":
        generators = product_matrices(ctx, generators).transpose(0, 2, 1, 3).reshape(-1, n, ctx.k)
    return DistanceResult(value=_min_weight(generators, p), mode=mode, enumerated=scalars**ms.dim)


def _min_weight(generators: np.ndarray, p: int) -> int:
    """Minimum weight of the nonzero F_p combinations sum_t m_t * w_t of (N, n, k) generator codewords w_t.

    m vanishes at coordinate j iff M_j @ m = 0 mod p, where column t of
    the k x N matrix M_j holds w_t's digits at j.  So the weight of m is n
    minus the number of kernels ker M_j that hold m, and
    linalg.kernel_counts counts those for every m, one slab of codes at a
    time; m = 0 has code 0, the first of the first slab.
    """
    most = 0
    for i, counts in enumerate(kernel_counts(generators.transpose(1, 2, 0), p)):
        if i == 0:
            counts[0] = 0
        most = max(most, int(counts.max()))
    return generators.shape[1] - most


def min_distance_sampled(
    codewords: CodewordStore,
    samples: int = 100_000,
    seed: int = 0,
) -> int:
    """Smallest weight among random nonzero field-linear codewords of a codeword store's message space (upper bound).

    Messages are drawn 8192 at a time.  A scalar s acts on a codeword w
    through its product matrix, digits(w*s) = digits(w) @ R_s
    (gf.product_matrices), so sum_b s_b * w_b is the (n, dim*k) array
    whose column (b, i) is digit i of w_b times the stacked R_{s_b}, and a
    chunk of samples is one linalg.matmul_mod_p with their matrices side
    by side.  The basis codewords are copied once from the store's held
    rows straight into that array, in their narrow type, so beside the
    store the sampler holds one dim*n*k-byte layout at p < 257 (about
    40 MB on I(2,3) at D = n).  A chunk's (n, chunk*k)
    product and (dim*k, chunk*k) matrices stay within SAMPLE_CHUNK_ENTRIES.
    Fewer than one sample is refused before anything is encoded.
    """
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    ms = codewords.ms
    ctx = ms.ctx
    p, k, n = ctx.p, ctx.k, codewords.n
    rng = np.random.default_rng(seed)
    columns = np.empty((n, ms.dim * k), dtype=np.min_scalar_type(p - 1))
    codewords(range(ms.dim), out=columns.reshape(n, ms.dim, k).transpose(1, 0, 2))  # column (b, i) is digit i of w_b
    chunk = max(1, SAMPLE_CHUNK_ENTRIES // (k * max(n, ms.dim * k)))
    best = n
    done = 0
    while done < samples:
        b = min(8192, samples - done)
        codes = rng.integers(0, ctx.order, size=(b, ms.dim))
        codes[(codes == 0).all(axis=1), 0] = 1
        for lo in range(0, b, chunk):
            part = codes[lo : lo + chunk]
            mats = product_matrices(ctx, base_p_digits(part.ravel(), p, k)).reshape(len(part), ms.dim, k, k)
            words = matmul_mod_p(columns, mats.transpose(1, 2, 0, 3).reshape(ms.dim * k, len(part) * k), p)
            best = min(best, int(words.reshape(n, len(part), k).any(axis=2).sum(axis=0).min()))
        done += b
    return best


# -- admissible monomial counting ------------------------------------------------


def monomial_count(config, D: int, r: Fraction | None = None) -> int:
    """Number of monomials g^i X^j passing the digit-weighted constraints.

    The local constraints bound j by r|G| and j plus the p-adic-digit-weighted
    sum of i by r|H| (subadditivity makes this sufficient for true
    h-base-degree membership); the global constraint bounds the monomial
    degree by D.  Counted monomials have pairwise distinct degrees, so the
    count lower bounds the message-space dimension.  config is read by
    attribute (p, m, r, h_order and weight, as on an InstanceConfig); the r
    override admits degenerate rates (r <= 0 counts nothing) that a config
    refuses.

    The h-base bound j + w(i) < r|H| has an integer digit weight w(i), so
    it is j <= max_degree_below(r|H|) - w(i), with no rational arithmetic
    per i.
    """
    r = config.r if r is None else Fraction(r)
    if r <= 0:
        return 0
    p, glen = config.p, config.p**config.m
    top = (D - 1) // glen  # the largest i with deg g^i < D
    weights = [config.weight(k) for k in range(max(1, top.bit_length()))]  # one per base-p digit of i <= top
    jcap_h = max_degree_below(r * config.h_order)
    jcap_g = max_degree_below(r * glen)  # binds on II only: on I, r|H| - w < r|G|
    count = 0
    for i in range(top + 1):
        w, rest, k = 0, i, 0
        while rest:
            w += (rest % p) * weights[k]
            rest //= p
            k += 1
        count += max(0, min(jcap_h - w, D - 1 - i * glen, jcap_g) + 1)  # j = 0 .. the largest admissible j
    return count
