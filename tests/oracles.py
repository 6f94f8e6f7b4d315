"""Slow reference implementations that the fast kernels are tested against.

* scalar field and polynomial arithmetic: ``Poly`` (coefficient lists of
  ``FieldElement``s, deg 0 = ``MINUS_INFINITY``), the annihilator
  ``translation_invariant_poly`` as a product of |G| linear factors,
  ``lagrange_interpolate``, the trace ``trace``/``char_exponent`` as sums
  of Frobenius conjugates, ``kernel_subspace`` of a Python callable on
  ``FieldElement``s, and ``point_set``, the points of a subspace as a set.
* ``per_row_pack_bits`` and ``per_row_unpack_bits``: the packing of F_2
  vectors into little-endian words one row at a time, by
  ``np.packbits``/``np.unpackbits`` along the last axis, as
  ``linalg.pack_bits``/``unpack_bits`` ran before they converted the
  flat byte buffer in one call.
* mod-p elimination one column at a time: ``row_reduce_against``, the
  coset representative by one pivot after another,
  ``eager_rref_mod_p``, the elimination that reduces every row update
  mod p at once, and ``scalar_nullspace``, the kernel basis by
  entry-wise back-substitution on that elimination's RREF.
* the scalar build: ``scalar_primitive_element``, ``scalar_scaling_group``
  (H's powers and their inverses, one scalar product or inverse each),
  ``scalar_scaling_closure`` (a queue of scalar products with H's
  generator, tested by ``contains``), ``independent_over_subfield``,
  ``divisors``; ``AffineMap`` and ``group_elements`` (every map of A
  as a pair of ``FieldElement``s, S in digit order outermost),
  ``scalar_find_free_point``, ``scalar_orbit`` and ``scalar_build_graph``,
  one scalar field operation per element of A or of the field.
* ``scalar_vertex_degrees``: every vertex's restriction interpolated on
  its own with scalar field arithmetic (``lagrange_interpolate``, one
  node polynomial per vertex), and
  ``scalar_side_coeff_maps``: each side's Lagrange map, from the
  Lagrange polynomials (``lagrange_weights``) of its base.
* ``dfs_min_weight``: minimum codeword weight by depth-first recursion
  over the basis rows, one scalar multiple at a time, with the scalar
  tables built from scalar ``FieldElement`` products.
* ``scalar_sigma2_exact`` and ``scalar_char_sum_max``: the exact spectral
  scans over every element of the ambient field, one scalar product per
  (element, group element) pair.
* ``biadjacency`` and ``sigma2_svd``: the graph's dense bi-adjacency
  matrix and sigma_2 by dense SVD of it (with the check sigma_1 = 1), the
  check on the small rungs of ``cosetgraph.sigma2_oracle``.
* the two-step walk diagnostics (``two_step_counts`` through
  ``character_eigencheck``): exact and sampled cross-checks of the walk
  rule and of the character eigenvectors, over whole fields or closures.
* ``scalar_message_space_generic``: the message-space basis by Gaussian
  elimination over the whole field with scalar ``FieldElement``
  arithmetic, on rows X^i g^j built as ``Poly`` products.
* ``matmul_message_basis``: the F_p message-space basis from U's
  spanning rows X^i g^j (``_u_row_pairs``, ``_u_rows``), the kernel of
  their bad h-columns times the rows through ``linalg.matmul_mod_p``, and
  ``eager_rref_mod_p``, as ``codecore.message_space`` computed it before
  it took U as the kernel of the base-g digit map.  It builds no digit
  matrix, so it is independent of ``fppoly.digit_chunks``, which both the
  construction and its base-g re-check now read.
* the scalar base expansions: ``base_expand``/``base_degree`` over any
  field and ``base_digits``/``max_digit_degree`` over F_p, one Euclidean
  division at a time on little-endian coefficient lists; ``power`` by
  repeated squaring (test_fppoly checks both against sympy's galoistools
  and ``galois_poly`` converts to its convention); the direct weight and
  monomial checks ``weight_direct`` and ``monomial_is_sound`` built on
  them; ``digit_weighted_monomials``, the monomials that
  ``codecore.monomial_count`` counts, by testing every (i, j) against the
  rational bounds; ``synthetic_expansion_degrees``, the batched base-u degrees by
  iterated synthetic division on all rows at once; and
  ``kernel_base_degree``, which puts one polynomial through the batched
  kernel ``fppoly.expansion_degrees`` in the oracles' convention.
* ``scalar_encode``: Horner evaluation of one message at every orbit point.
* ``int64_mul_matrix`` and ``int64_mul_rows``: the field's multiplication
  matrices in the column convention (digits(x*y) = M @ digits(y)) and the
  row-wise products, both contracted with the multiplication tensor in
  int64, as the build computed them before every product went through
  ``linalg.matmul_mod_p``.
* the int64 einsum kernels the encoder and the distance tables replaced:
  ``einsum_power_tensor`` (the powers of every point, one batched
  mat-vec per power), ``einsum_encode_basis_digits`` (coefficients times
  that tensor, contracted in int64) and ``einsum_multiples`` (every
  multiplier's multiplication matrix applied to every codeword).
* ``table_min_distance_sampled``: the sampled distance from full tables of
  every scalar multiple of every basis codeword; and
  ``blocked_min_distance_sampled`` (with ``_multiples``), the sampler as
  ``codecore`` ran it before a scalar acted through its product matrix:
  each chunk of samples times the multiples x^a·w of one block of basis
  rows at a time, rebuilt for every chunk.
* ``chunked_min_weight`` (with ``_pack`` and ``_add_mod``): the exhaustive
  minimum weight as ``codecore`` enumerated it before it counted each
  coordinate's kernel, every codeword weighed against every coordinate
  on packed words, the trailing rows' multiples in one low table of at
  most ``LOW_TABLE_BYTES``; and ``chunked_min_distance``, the exhaustive
  distance of a codeword store (value, mode and count) on it.
* the Monte Carlo volume oracle for the closed-form polytope volumes of
  ``bounds``: ``polytope_indicator_i``/``_ii`` (membership tests of the
  two polytopes) and ``volume_monte_carlo`` (uniform sampling of the unit
  cube).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod, sqrt
from typing import Callable, Iterable, Sequence

import numpy as np
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_normal

from orbitcodes import fppoly
from orbitcodes.bounds import _validate
from orbitcodes.codecore import encode_basis_digits, max_degree_below
from orbitcodes.cosetgraph import CharSumMax, CosetGraph, Sigma2Exact
from orbitcodes.errors import DEFAULT_BUDGETS, ConfigurationError, InternalError, ParameterError
from orbitcodes.gf import FieldContext, FieldElement, FpSubspace, base_p_digits, frobenius_matrix, product_matrices
from orbitcodes.groupgeom import GroupA, ScalingGroup, TranslationGroup
from orbitcodes.linalg import matmul_mod_p, nullspace_mod_p, pack_bits, rank_mod_p, word_width
from orbitcodes.numutil import prime_factors

MINUS_INFINITY = float("-inf")


# -- int64 products through the multiplication tensor ---------------------------


def int64_mul_matrix(ctx: FieldContext, digits: np.ndarray) -> np.ndarray:
    """(..., k, k) matrices M of y -> x*y, digits(x*y) = M @ digits(y) mod p, for the rows x of an (..., k) array."""
    k = ctx.k
    x = np.asarray(digits, dtype=np.int64)
    return (x @ ctx.mul_tensor().reshape(k, k * k)).reshape(x.shape[:-1] + (k, k)).swapaxes(-1, -2) % ctx.p


def int64_mul_rows(ctx: FieldContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of two broadcastable (..., k) digit arrays, through mul_tensor in int64."""
    k = ctx.k
    outer = np.asarray(a, dtype=np.int64)[..., :, None] * np.asarray(b, dtype=np.int64)[..., None, :]
    return outer.reshape(outer.shape[:-2] + (k * k,)) @ ctx.mul_tensor().reshape(k * k, k) % ctx.p


# -- bit packing one row at a time ------------------------------------------------


def per_row_pack_bits(bits, word_bits: int = 64) -> np.ndarray:
    """Words (..., ceil(n / word_bits)) of the entries (..., n) of bits mod 2, little-endian, packed along the last axis."""
    bits = np.asarray(bits)
    n = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (-(-n // word_bits) * word_bits,), dtype=np.uint8)
    np.bitwise_and(bits, 1, out=padded[..., :n], casting="unsafe")
    return np.packbits(padded, axis=-1, bitorder="little").view(np.dtype(f"<u{word_bits // 8}"))


def per_row_unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits (..., n) of every vector of per_row_pack_bits words, unpacked along the last axis."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=n, bitorder="little").reshape(words.shape[:-1] + (n,))


# -- scalar field and polynomial arithmetic ---------------------------------------


class Poly:
    """Polynomial with FieldElement coefficients, ascending degree.

    Canonical form: the highest stored coefficient is nonzero; the zero
    polynomial stores no coefficients at all.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: Iterable[FieldElement] = ()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ctx: FieldContext) -> "Poly":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: FieldContext) -> "Poly":
        return cls(ctx, [ctx.one()])

    @classmethod
    def x(cls, ctx: FieldContext) -> "Poly":
        return cls(ctx, [ctx.zero(), ctx.one()])

    @classmethod
    def from_ints(cls, ctx: FieldContext, ints: Sequence[int]) -> "Poly":
        return cls(ctx, [ctx.element([c]) for c in ints])

    @classmethod
    def monomial(cls, ctx: FieldContext, degree: int, coeff: FieldElement | None = None) -> "Poly":
        c = ctx.one() if coeff is None else coeff
        return cls(ctx, [ctx.zero()] * degree + [c])

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ParameterError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({[c.code() for c in self.coeffs]})"

    def _check_ctx(self, other: "Poly") -> None:
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ParameterError("field context mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.ctx.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return Poly(self.ctx, a)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, FieldElement):
            return Poly(self.ctx, [c * other for c in self.coeffs])
        self._check_ctx(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        z = self.ctx.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ParameterError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, n: int) -> "Poly":
        """Multiply by X^n."""
        if self.is_zero():
            return self
        return Poly(self.ctx, [self.ctx.zero()] * n + list(self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_ctx(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree
        if self.degree < db:
            return Poly.zero(self.ctx), self
        lc_inv = other.leading().inverse()
        rem = list(self.coeffs)
        q = [self.ctx.zero()] * (len(rem) - db)
        terms = [(j, c) for j, c in enumerate(other.coeffs) if not c.is_zero()]
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c.is_zero():
                continue
            qc = c * lc_inv
            q[i - db] = qc
            for j, bc in terms:
                rem[i - db + j] = rem[i - db + j] - qc * bc
        return Poly(self.ctx, q), Poly(self.ctx, rem[:db])

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def int_coeffs(self) -> list[int] | None:
        """Coefficients as prime-field ints, or None if any lies outside F_p."""
        out = []
        for c in self.coeffs:
            if any(c.coeffs[1:]):
                return None
            out.append(c.coeffs[0])
        return out


def translation_invariant_poly(points: FpSubspace) -> Poly:
    """Annihilator prod_{u in G}(X - u) of an additive subgroup, one Poly product per point."""
    ctx = points.ctx
    acc = Poly.one(ctx)
    for u in ctx.elements_of(points.points()):
        acc = acc * Poly(ctx, [-u, ctx.one()])
    return acc


def lagrange_weights(points: Sequence[FieldElement]) -> tuple[list[Poly], list[FieldElement]]:
    """Numerators N / (X - x_i) and weights 1/d_i of distinct points; their products are the Lagrange polynomials.

    The node polynomial N = prod_j (X - x_j) is built once; each numerator
    comes from it by synthetic division, and its value at x_i is the
    denominator d_i = prod_{j != i} (x_i - x_j).  All the 1/d_i come from
    one field inverse, of the product of the d_i.
    """
    if not points:
        raise ParameterError("interpolation needs at least one point")
    ctx = points[0].ctx
    node = Poly.one(ctx)
    for xj in points:
        node = node * Poly(ctx, [-xj, ctx.one()])
    numerators = []
    for xi in points:
        quotient, carry = [], ctx.zero()
        for c in reversed(node.coeffs[1:]):  # q_(t-1) = n_t + x_i * q_t, from the top
            carry = c + xi * carry
            quotient.append(carry)
        numerators.append(Poly(ctx, reversed(quotient)))
    denoms = [num(xi) for num, xi in zip(numerators, points)]
    inv_all = prod(denoms, start=ctx.one()).inverse()
    weights = [prod((d for j, d in enumerate(denoms) if j != i), start=inv_all) for i in range(len(denoms))]
    return numerators, weights


def lagrange_interpolate(points: Sequence[FieldElement], values: Sequence[FieldElement]) -> Poly:
    """Unique polynomial of degree < len(points) through the given data."""
    if len(points) != len(values):
        raise ParameterError("point/value length mismatch")
    numerators, weights = lagrange_weights(points)
    acc = Poly.zero(points[0].ctx)
    for num, w, yi in zip(numerators, weights, values):
        if not yi.is_zero():
            acc = acc + num * (yi * w)
    return acc


@lru_cache(maxsize=None)
def conjugate_trace_vector(ctx: FieldContext) -> tuple[int, ...]:
    """Traces of the power basis 1, X, ..., X^(k-1), each the sum of its k Frobenius conjugates."""
    vec = []
    for j in range(ctx.k):
        x = ctx.gen() ** j if ctx.k > 1 else ctx.one()
        acc = y = x
        for _ in range(ctx.k - 1):
            y = y**ctx.p
            acc = acc + y
        if any(acc.coeffs[1:]):
            raise InternalError("trace fell outside the prime field")
        vec.append(acc.coeffs[0])
    return tuple(vec)


def trace(x: FieldElement) -> int:
    """Field trace down to F_p, through the conjugate sums of the power basis (trace is F_p-linear)."""
    return sum(c * t for c, t in zip(x.coeffs, conjugate_trace_vector(x.ctx))) % x.ctx.p


def char_exponent(a: FieldElement, s: FieldElement) -> int:
    """Exponent e = Tr(a*s) of the additive character value exp(2*pi*i*e/p)."""
    if a.ctx != s.ctx:
        raise ParameterError("field context mismatch")
    return trace(a * s)


def kernel_subspace(ctx: FieldContext, func: Callable[[FieldElement], FieldElement]) -> FpSubspace:
    """Kernel of an F_p-linear map given as a callable, from its images of the power basis."""
    cols = []
    x = ctx.one()
    for _ in range(ctx.k):
        cols.append(func(x).coeffs)
        x = x * ctx.gen()
    return FpSubspace(ctx, nullspace_mod_p(np.array(cols, dtype=np.int64).T, ctx.p))


def point_set(space: FpSubspace) -> frozenset:
    """The points of a subspace as a set of FieldElements."""
    return frozenset(space.ctx.elements_of(space.points()))


# -- mod-p elimination, one column at a time ---------------------------------------


def row_reduce_against(vec: np.ndarray, rr: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Remainder of every row of vec (..., cols) after eliminating the pivot coordinates of rr, one pivot at a time."""
    v = vec.astype(np.int64) % p
    for row, c in enumerate(pivots):
        v = (v - v[..., c, None] * rr[row]) % p
    return v


def eager_rref_mod_p(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices, every row update reduced mod p at once."""
    a = np.array(mat, dtype=np.int64, copy=True)
    if a.ndim != 2:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    a %= p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def scalar_nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {x : mat @ x = 0 mod p}, by back-substitution one entry at a time."""
    cols = mat.shape[1]
    rr, pivots = eager_rref_mod_p(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row, pc in enumerate(pivots):
            basis[i, pc] = (-rr[row, fc]) % p
    return basis


# -- the scalar build ------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """The map x -> scale*x + shift, an element of AGL(1, F)."""

    shift: FieldElement
    scale: FieldElement

    def __post_init__(self):
        if self.scale.is_zero():
            raise ParameterError("affine map must have nonzero scale")

    @classmethod
    def identity(cls, ctx: FieldContext) -> "AffineMap":
        return cls(ctx.zero(), ctx.one())

    def apply(self, x: FieldElement) -> FieldElement:
        return self.scale * x + self.shift

    def compose(self, other: "AffineMap") -> "AffineMap":
        """Group law of AGL(1, F): (s1, h1)*(s2, h2) = (s1 + h1*s2, h1*h2), i.e. self o other."""
        return AffineMap(self.shift + self.scale * other.shift, self.scale * other.scale)

    def inverse(self) -> "AffineMap":
        inv = self.scale.inverse()
        return AffineMap(-(inv * self.shift), inv)

    def is_identity(self) -> bool:
        return self.shift.is_zero() and self.scale == self.scale.ctx.one()


def contains(space: FpSubspace, x: FieldElement) -> bool:
    """Whether x lies in the subspace (its coset representative is zero)."""
    return not space.reduce(np.array(x.coeffs)).any()


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending."""
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def scalar_primitive_element(ctx: FieldContext) -> FieldElement:
    """First generator of the multiplicative group in enumeration order, by scalar powers from code 1."""
    n = ctx.order - 1
    factors = prime_factors(n)
    for v in range(1, ctx.order):
        x = ctx.from_int(v)
        if all((x ** (n // q)) != ctx.one() for q in factors):
            return x
    raise ConfigurationError("no primitive element found")


def scalar_scaling_group(generator: FieldElement, order: int) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]:
    """(powers, inverses) of a generator of exactly the given order, by scalar products.

    powers are 1, g, ..., g^(order-1) and inverses[i] is powers[i].inverse();
    an order the generator does not have is refused by the prime-divisor
    test g^order = 1 and g^(order/q) != 1 for every prime q | order.
    """
    one = generator.ctx.one()
    if generator**order != one or any(generator ** (order // q) == one for q in prime_factors(order)):
        raise ParameterError(f"generator does not have order {order}")
    powers = [one]
    for _ in range(order - 1):
        powers.append(powers[-1] * generator)
    return tuple(powers), tuple(x.inverse() for x in powers)


def scalar_scaling_closure(G: TranslationGroup, H: ScalingGroup) -> FpSubspace:
    """Smallest H-invariant subspace containing G, by a queue of scalar products h*v with the generator."""
    ctx = G.ctx
    gen = ctx.elements_of(H.generator[None])[0]
    current = FpSubspace(ctx, G.points.basis)
    queue = list(ctx.elements_of(current.basis))
    while queue:
        w = gen * queue.pop()
        if not contains(current, w):
            current = FpSubspace(ctx, np.vstack([current.basis, w.coeffs]))
            queue.append(w)
    if not all(contains(current, gen * b) for b in ctx.elements_of(current.basis)):
        raise InternalError("closure did not stabilize")
    return current


def independent_over_subfield(ctx: FieldContext, vectors: np.ndarray, degree: int) -> bool:
    """Whether the rows of an (n, k) digit array are linearly independent over the subfield K of the given degree.

    The K-span of the vectors is the F_p-span of {w*v : w in an F_p-basis
    of K}, so they are K-independent iff that set has F_p-rank
    len(vectors) * [K:F_p].
    """
    vecs = np.asarray(vectors, dtype=np.int64).reshape(-1, ctx.k)
    p, k = ctx.p, ctx.k
    if degree < 1 or k % degree != 0:
        raise ParameterError(f"subfield degree {degree} does not divide the ambient degree {k}")
    if not len(vecs):
        return True
    frob, fixed = frobenius_matrix(ctx), np.eye(k, dtype=np.int64)
    for _ in range(degree):
        fixed = frob @ fixed % p  # F^degree: x -> x^(p^degree)
    K = FpSubspace.kernel(ctx, (fixed - np.eye(k, dtype=np.int64)) % p)
    products = int64_mul_rows(ctx, vecs[:, None], K.basis[None])
    return rank_mod_p(products.reshape(-1, k), p) == len(vecs) * degree


def scalar_points(S: FpSubspace) -> list[FieldElement]:
    """The points of S in digit order: point i is sum_j c_j * basis[j] for the base-p digits c of i."""
    pts = [S.ctx.zero()]
    for b in S.ctx.elements_of(S.basis):
        pts = [x + c * b for c in range(S.ctx.p) for x in pts]
    return pts


def group_elements(A: GroupA) -> tuple[AffineMap, ...]:
    """All |S|*|H| maps of A, S in digit order outermost, H in power order."""
    return tuple(AffineMap(s, h) for s in scalar_points(A.S) for h in A.ambient.elements_of(A.H.elements))


def scalar_find_free_point(A: GroupA) -> FieldElement:
    """First field element (enumeration order) outside every fixed point (1-h)^-1 * s, h != 1."""
    ambient = A.ambient
    if ambient.order < A.size:
        raise ConfigurationError(f"ambient field size {ambient.order} below group size {A.size}")
    one = ambient.one()
    s_points = scalar_points(A.S)
    bad = set()
    for h in ambient.elements_of(A.H.elements):
        if h == one:
            continue
        inv = (one - h).inverse()
        for s in s_points:
            bad.add(inv * s)
    for cand in ambient.elements():
        if cand not in bad:
            return cand
    raise ConfigurationError("no free point exists; ambient field too small")


def scalar_orbit(A: GroupA, alpha: FieldElement) -> np.ndarray:
    """(|A|, k) digits of phi(alpha) for phi in group_elements(A), checked injective."""
    pts = [phi.apply(alpha) for phi in group_elements(A)]
    if len(set(pts)) != len(pts):
        raise InternalError("orbit points collide; the base point is not free")
    return A.ambient.digit_rows(pts)


def scalar_build_graph(A: GroupA, G: TranslationGroup) -> CosetGraph:
    """The coset graph from one scalar product per map of A.

    The left key of (s, h) is (the smallest code in s + G, h), with left
    indices in first-appearance order; the right index is the position
    of h^-1 * s among scalar_points(A.S).
    """
    S, H = A.S, A.H
    g_points = scalar_points(G.points)
    position = {pt: i for i, pt in enumerate(scalar_points(S))}
    left_index: dict[tuple, int] = {}
    edges: list[tuple[int, int]] = []
    for s in scalar_points(S):
        coset = min((s + g).code() for g in g_points)
        for hi, ih in enumerate(A.ambient.elements_of(H.inverses)):
            li = left_index.setdefault((coset, hi), len(left_index))
            edges.append((li, position[ih * s]))
    n_left, n_right = len(left_index), S.size
    if n_left * G.size != A.size or n_right * H.order != A.size:
        raise InternalError("coset counts inconsistent with the group size")
    left_deg = np.zeros(n_left, dtype=np.int64)
    right_deg = np.zeros(n_right, dtype=np.int64)
    for l, r in edges:
        left_deg[l] += 1
        right_deg[r] += 1
    if not (np.all(left_deg == G.size) and np.all(right_deg == H.order)):
        raise InternalError("graph is not biregular")
    return CosetGraph(
        n_left=n_left,
        n_right=n_right,
        left_degree=G.size,
        right_degree=H.order,
        edges=np.array(edges, dtype=np.int64).reshape(len(edges), 2),
        is_simple=len(set(edges)) == len(edges),
    )


# -- local checks and distance -----------------------------------------------------


def scalar_vertex_degrees(ctx: FieldContext, cw, graph, omega) -> list[tuple[str, int, int | None]]:
    """(side, index, interpolant degree or None) for every vertex, left side first."""
    left, right = graph.incidence
    points, values = ctx.elements_of(omega), ctx.elements_of(cw)
    out = []
    for side, groups in (("left", left), ("right", right)):
        for vi, edge_ids in enumerate(groups.tolist()):
            interp = lagrange_interpolate([points[e] for e in edge_ids], [values[e] for e in edge_ids])
            d = interp.degree
            out.append((side, vi, None if d == MINUS_INFINITY else int(d)))
    return out


def scalar_side_coeff_maps(ctx: FieldContext, graph, omega) -> dict[str, np.ndarray]:
    """Each side's (L*k, L*k) map from value digits to interpolant coefficient digits.

    The base is vertex 0's points minus its first point (left) or divided
    by it (right); column block j holds the multiplication matrices of the
    coefficients of the Lagrange polynomial of base point j.
    """
    left, right = graph.incidence
    points = ctx.elements_of(omega)
    maps = {}
    for side, edge_ids in (("left", left[0]), ("right", right[0])):
        pts = [points[e] for e in edge_ids.tolist()]
        base = [x - pts[0] for x in pts] if side == "left" else [x / pts[0] for x in pts]
        size, k = len(base), ctx.k
        blocks = np.zeros((size, k, size, k), dtype=np.int64)
        for j, (num, w) in enumerate(zip(*lagrange_weights(base))):
            for i, c in enumerate((num * w).coeffs):
                blocks[i, :, j, :] = int64_mul_matrix(ctx, np.array(c.coeffs))
        maps[side] = blocks.reshape(size * k, size * k)
    return maps


def _scalar_mult_matrix(c, basis) -> np.ndarray:
    return np.array([(c * b).coeffs for b in basis], dtype=np.int64).T


def scalar_tables(ms, omega, prime_only: bool) -> list[np.ndarray]:
    """Digits (scalars, n, k) of every scalar multiple of every basis codeword."""
    ctx = ms.ctx
    p, k = ctx.p, ctx.k
    rows = encode_basis_digits(ctx, ms.coeffs, omega)
    scalars = [ctx.from_int(c) for c in range(p)] if prime_only else list(ctx.elements())
    basis = [ctx.one()]
    for _ in range(k - 1):
        basis.append(basis[-1] * ctx.gen())
    mats = [_scalar_mult_matrix(c, basis) for c in scalars]
    return [np.stack([(row @ m.T) % p for m in mats]) for row in rows]


def dfs_min_weight(tables: list[np.ndarray], p: int) -> int:
    """Minimum weight over all nonzero combinations, by recursion over the rows."""
    dim = len(tables)
    best = [np.inf]

    def rec(row: int, prefix: np.ndarray, zero_prefix: bool):
        if row == dim - 1:
            batch = (prefix[None] + tables[row]) % p
            weights = batch.any(axis=2).sum(axis=1)
            if zero_prefix:
                weights = weights[1:]
            if weights.size:
                best[0] = min(best[0], int(weights.min()))
        else:
            for ci in range(tables[row].shape[0]):
                rec(row + 1, (prefix + tables[row][ci]) % p, zero_prefix and ci == 0)

    rec(0, np.zeros_like(tables[0][0]), True)
    return int(best[0])


def scalar_sigma2_exact(
    G: TranslationGroup, H: ScalingGroup, S: FpSubspace, ambient: FieldContext
) -> Sigma2Exact:
    """sigma_2 from lambda_a = Pr_h[h^-1 a in G^perp], maximized over every a outside S^perp."""
    g_perp = point_set(G.points.dual())
    s_perp = point_set(S.dual())
    inverses = ambient.elements_of(H.inverses)
    best = 0
    for a in ambient.elements():
        if a in s_perp:
            continue
        cnt = 0
        for ih in inverses:
            if ih * a in g_perp:
                cnt += 1
        if cnt > best:
            best = cnt
            if best == H.order:
                break
    lam = Fraction(best, H.order)
    return Sigma2Exact(value=sqrt(lam), lambda_max=lam)


def scalar_char_sum_max(H: ScalingGroup, ambient: FieldContext) -> CharSumMax:
    """M = max over every a outside H^perp of |sum_h chi_a(h)|, from exponent histograms."""
    p = ambient.p
    h_perp = point_set(FpSubspace(ambient, H.elements).dual())
    zeta = np.exp(2j * np.pi * np.arange(p) / p)
    best = -1.0
    best_sq: Fraction | None = None
    for a in ambient.elements():
        if a in h_perp:
            continue
        counts = [0] * p
        for h in ambient.elements_of(H.elements):
            counts[trace(a * h)] += 1
        val = abs(sum(c * zeta[e] for e, c in enumerate(counts) if c))
        if val > best:
            best = val
            if p <= 3:
                b0 = sum(c * c for c in counts)
                b1 = sum(counts[e] * counts[(e + 1) % p] for e in range(p))
                best_sq = Fraction(b0 - b1)
            else:
                best_sq = None
    if best < 0:
        raise InternalError("no nontrivial character found")
    return CharSumMax(value=best, sq_exact=best_sq)


# -- the dense spectral oracle ------------------------------------------------


def biadjacency(graph: CosetGraph) -> np.ndarray:
    """Integer (n_left, n_right) matrix B; entry (l, r) counts the edges between l and r."""
    b = np.zeros((graph.n_left, graph.n_right), dtype=np.int64)
    np.add.at(b, (graph.edges[:, 0], graph.edges[:, 1]), 1)
    return b


def sigma2_svd(graph: CosetGraph) -> float:
    """Second singular value of T = B / sqrt(dL*dR), by dense SVD; the largest must be 1 (to 1e-9)."""
    t = biadjacency(graph) / sqrt(graph.left_degree * graph.right_degree)
    svals = np.linalg.svd(t, compute_uv=False)
    if abs(svals[0] - 1.0) > 1e-9:
        raise InternalError(f"leading singular value {svals[0]!r} differs from 1")
    return float(svals[1]) if len(svals) > 1 else 0.0


# -- two-step walk diagnostics -----------------------------------------------


def two_step_counts(graph: CosetGraph) -> np.ndarray:
    """Integer matrix B^T B; entry (j, j') counts 2-paths between right cosets."""
    b = biadjacency(graph)
    return b.T @ b


def walk_difference_counts(G: TranslationGroup, H: ScalingGroup, S: FpSubspace) -> np.ndarray:
    """Counts of the step difference d = h^-1 * g over (g, h), indexed by S.

    The two-step walk from state s lands on s + h^-1 g, so row s of B^T B
    must equal these counts shifted by s — an exact cross-check of the
    transition rule against the assembled matrix.
    """
    counts = np.zeros(S.size, dtype=np.int64)
    g_points = scalar_points(G.points)
    for h_inv in H.ctx.elements_of(H.inverses):
        for g in g_points:
            counts[_index(S, h_inv * g)] += 1
    return counts


def _index(S: FpSubspace, x: FieldElement) -> int:
    return int(S.index_of(np.array(x.coeffs)))


def walk_matrix_matches_rule(graph: CosetGraph, G: TranslationGroup, H: ScalingGroup, S: FpSubspace) -> bool:
    """Exact identity: (B^T B)[s, s'] == #{(g,h) : s' = s + h^-1 g}."""
    btb = two_step_counts(graph)
    diff = walk_difference_counts(G, H, S)
    pts = scalar_points(S)
    for si, s in enumerate(pts):
        for sj, s2 in enumerate(pts):
            if btb[si, sj] != diff[_index(S, s2 - s)]:
                return False
    return True


def sample_walk_tv(
    graph: CosetGraph,
    G: TranslationGroup,
    H: ScalingGroup,
    S: FpSubspace,
    steps: int = 100_000,
    seed: int = 0,
    start_index: int = 0,
) -> float:
    """Total-variation gap between sampled one-(double)-step transitions and B^T B.

    Samples uniform (g, h), applies s' = s + h^-1 g from the start state,
    and compares the empirical distribution with the matching row of the
    normalized two-step matrix.
    """
    rng = np.random.default_rng(seed)
    g_points = scalar_points(G.points)
    h_invs = H.ctx.elements_of(H.inverses)
    start = scalar_points(S)[start_index]
    targets = np.array([_index(S, start + ih * g) for ih in h_invs for g in g_points], dtype=np.int64)
    picks = rng.integers(0, len(targets), size=steps)
    hits = np.bincount(targets[picks], minlength=S.size)
    empirical = hits / steps
    row = two_step_counts(graph)[start_index].astype(np.float64)
    row /= G.size * H.order
    return 0.5 * float(np.abs(empirical - row).sum())


def character_exponents(s_points: list[FieldElement], a: FieldElement) -> tuple[int, ...]:
    """Exponent vector (Tr(a*s) over the points s of S, in digit order) of chi_a restricted to S."""
    return tuple(trace(a * s) for s in s_points)


def character_eigencheck(
    graph: CosetGraph, G: TranslationGroup, H: ScalingGroup, S: FpSubspace, ambient: FieldContext
) -> bool:
    """Exact check that the S-characters diagonalize the two-step operator.

    Verifies (B^T B) chi_a = |G| * cnt_a * chi_a in the cyclotomic integers
    Z[zeta_p], comparing exponent histograms canonically (two integer
    combinations of p-th roots of unity agree iff their histogram
    difference is constant).  Also confirms exactly |S| distinct
    characters appear.
    """
    p = ambient.p
    btb = two_step_counts(graph)
    g_perp = point_set(G.points.dual())
    s_points = scalar_points(S)
    seen: dict[tuple[int, ...], int] = {}
    for a in ambient.elements():
        exps = character_exponents(s_points, a)
        cnt = sum(1 for ih in ambient.elements_of(H.inverses) if ih * a in g_perp)
        prev = seen.get(exps)
        if prev is not None:
            if prev != cnt:
                return False
            continue
        seen[exps] = cnt
        evec = np.array(exps, dtype=np.int64)
        # LHS histograms: for each row s, counts of each exponent weighted by BtB
        lhs = np.zeros((S.size, p), dtype=np.int64)
        for e in range(p):
            mask = evec == e
            if mask.any():
                lhs[:, e] = btb[:, mask].sum(axis=1)
        rhs = np.zeros((S.size, p), dtype=np.int64)
        rhs[np.arange(S.size), evec] = G.size * cnt
        delta = lhs - rhs
        if not np.all(delta == delta[:, :1]):
            return False
    return len(seen) == S.size


def _u_row_pairs(glen: int, imax: int, D: int) -> list[tuple[int, int]]:
    pairs = []
    j = 0
    while j * glen < D:
        top = min(imax, D - 1 - j * glen)
        for i in range(top + 1):
            pairs.append((i, j))
        j += 1
    return pairs


def _u_rows(g: np.ndarray, pairs: list[tuple[int, int]], D: int, p: int) -> np.ndarray:
    """(len(pairs), D) F_p coefficients of X^i g^j for every (i, j) of pairs, j ascending.

    Each g^j is g^(j-1) times g: one shifted multiple per nonzero term of g.
    """
    terms = [(e, int(g[e])) for e in np.nonzero(g)[0].tolist()]
    rows = np.zeros((len(pairs), D), dtype=np.int64)
    gj = np.ones(1, dtype=np.int64)  # g^0 = 1
    cur_j = 0
    for ridx, (i, j) in enumerate(pairs):
        while cur_j < j:
            nxt = np.zeros(len(gj) + len(g) - 1, dtype=np.int64)
            for e, coeff in terms:
                nxt[e : e + len(gj)] += coeff * gj
            gj = nxt % p
            cur_j += 1
        rows[ridx, i : i + len(gj)] = gj
    return rows


def scalar_message_space_generic(G: TranslationGroup, H: ScalingGroup, r: Fraction, D: int) -> list[Poly]:
    """Basis of U cap V from the field-coefficient rows X^i g^j, eliminated over the field.

    The combinations c with sum_u c_u U_u vanishing on every column t with
    t mod |H| above the scaling bound form the kernel of the bad-column
    system; the basis is one combination per free variable, in variable
    order.
    """
    ctx = G.ctx
    imax_h = max_degree_below(r * H.order)
    bad_cols = [t for t in range(D) if (t % H.order) > imax_h]
    pairs = _u_row_pairs(G.size, max_degree_below(r * G.size), D)
    zero = ctx.zero()
    g = translation_invariant_poly(G.points)
    rows: list[list[FieldElement]] = []
    gj = Poly.one(ctx)
    cur_j = 0
    for i, j in pairs:
        while cur_j < j:
            gj = gj * g
            cur_j += 1
        shifted = gj.shift(i)
        rows.append(list(shifted.coeffs) + [zero] * (D - len(shifted.coeffs)))
    columns = [[rows[u][c] for u in range(len(rows))] for c in bad_cols]
    basis = []
    for combo in _field_nullspace(columns, len(rows), ctx):
        acc = [zero] * D
        for coef, row in zip(combo, rows):
            if coef.is_zero():
                continue
            for t in range(D):
                if not row[t].is_zero():
                    acc[t] = acc[t] + coef * row[t]
        basis.append(Poly(ctx, acc))
    return [b for b in basis if not b.is_zero()]


def matmul_message_basis(G: TranslationGroup, H: ScalingGroup, r: Fraction, D: int) -> np.ndarray:
    """The (dim, D) int64 message-space basis: the kernel of U's bad-column block times U's rows, in RREF.

    The product is one linalg.matmul_mod_p and the RREF the eager
    elimination, at every p.
    """
    p = G.ctx.p
    imax_h = max_degree_below(r * H.order)
    bad_cols = [t for t in range(D) if (t % H.order) > imax_h]
    rows = _u_rows(G.g, _u_row_pairs(G.size, max_degree_below(r * G.size), D), D, p)
    kernel = nullspace_mod_p(rows[:, bad_cols].T, p)
    return eager_rref_mod_p(matmul_mod_p(kernel, rows, p), p)[0]


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


# -- scalar base expansions -----------------------------------------------------


@dataclass(frozen=True)
class BaseUExpansion:
    """Digits of the unique expansion f = sum_i digits[i] * u^i."""

    u: Poly
    digits: tuple[Poly, ...]

    def reconstruct(self) -> Poly:
        acc = Poly.zero(self.u.ctx)
        for d in reversed(self.digits):
            acc = acc * self.u + d
        return acc

    @property
    def max_digit_degree(self) -> int | float:
        if not self.digits:
            return MINUS_INFINITY
        return max(d.degree for d in self.digits)


def base_expand(f: Poly, u: Poly) -> BaseUExpansion:
    """Expand f in base u by iterated Euclidean division (the expansion of 0 has no digits)."""
    if u.degree < 1:
        raise ParameterError("expansion base must be nonconstant")
    digits = []
    cur = f
    while not cur.is_zero():
        cur, rem = divmod(cur, u)
        digits.append(rem)
    return BaseUExpansion(u=u, digits=tuple(digits))


def base_degree(f: Poly, u: Poly) -> int | float:
    """u-base degree: the maximum digit degree, MINUS_INFINITY for f = 0."""
    return base_expand(f, u).max_digit_degree


def scaling_invariant_poly(ctx: FieldContext, order: int) -> Poly:
    """The monomial X^|H|, constant on the orbits of a scaling subgroup."""
    if order < 1:
        raise ParameterError(f"scaling group order must be >= 1, got {order}")
    return Poly.monomial(ctx, order)


def galois_poly(coeffs, p: int) -> list[int]:
    """Little-endian F_p coefficients as a galoistools polynomial: top coefficient first, no leading zeros."""
    return gf_normal([int(c) for c in reversed(list(coeffs))], p, ZZ)


def base_digits(f, u, p: int) -> list[list[int]]:
    """Digits c_i of the unique expansion f = sum c_i * u^i over F_p, deg c_i < deg u.

    f and u are little-endian coefficient sequences; so is every digit,
    without trailing zeros (the zero digit is the empty list).  Each digit
    is the remainder of one Euclidean division by u, from the top, that
    walks only u's nonzero lower terms; galoistools' gf_div walks all
    deg u of them and takes about four times as long on the message-space
    bases.
    """
    cur, base = _trim([int(c) % p for c in f]), _trim([int(c) % p for c in u])
    du = len(base) - 1
    if du < 1:
        raise ParameterError("expansion base must be nonconstant")
    lead_inv = pow(base[du], p - 2, p)
    terms = [(j, c) for j, c in enumerate(base[:du]) if c]
    digits = []
    while cur:
        quotient = [0] * max(len(cur) - du, 0)
        for i in range(len(cur) - 1, du - 1, -1):
            q = cur[i] * lead_inv % p
            if q:
                quotient[i - du] = q
                for j, c in terms:
                    cur[i - du + j] = (cur[i - du + j] - q * c) % p
        digits.append(_trim(cur[:du]))
        cur = _trim(quotient)
    return digits


def synthetic_expansion_degrees(rows: np.ndarray, u, p: int) -> np.ndarray:
    """Largest digit degree of every row's expansion in base u; -1 for a zero row.

    All rows are expanded at once by iterated synthetic division (von zur
    Gathen & Gerhard, Modern Computer Algebra, 9.2): dividing the quotient
    stored from column `start` on leaves the next digit in its low deg u
    columns and the new quotient above, so a row's largest digit degree is
    its largest t mod deg u over nonzero columns t.  Quotient column i only
    updates columns at or below i - step, step = deg u minus u's largest
    lower exponent, so step columns go in one vector operation.
    """
    u = np.asarray(u, dtype=np.int64) % p
    degree = len(u) - 1
    if degree < 1:
        raise ParameterError("expansion base must be nonconstant")
    if u[-1] != 1:
        raise ParameterError("expansion base must be monic")
    lower = [(e, int(u[e])) for e in range(degree) if u[e]]
    step = degree - max((e for e, _ in lower), default=0)
    work = np.asarray(rows, dtype=np.int64).T.copy()  # (L, R): columns are slabs
    length = work.shape[0]
    for start in range(0, length - degree, degree) if lower else ():
        for top in range(length, start + degree, -step):
            low = max(start + degree, top - step)
            quotient = work[low:top]
            quotient %= p  # targets are reduced only when read, which keeps entries small
            for e, coeff in lower:
                work[low - degree + e : top - degree + e] -= coeff * quotient
    offsets = np.arange(length) % degree
    return np.where(work % p != 0, offsets[:, None], -1).max(axis=0, initial=-1)


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def max_digit_degree(f, u, p: int) -> float | int:
    """Largest digit degree in the base-u expansion over F_p; -inf for f = 0."""
    digits = base_digits(f, u, p)
    if not digits:
        return float("-inf")
    return max(len(d) - 1 for d in digits)


def power(a, e: int, p: int) -> list[int]:
    """a**e over F_p by repeated squaring (no modulus), little-endian.

    Each product is one numpy convolution: g^(p^k) reaches degree 32768 in
    the weight checks, where galoistools' Python squaring (gf_pow) is
    about fifty times slower.
    """
    result, a = np.ones(1, dtype=np.int64), np.asarray(a, dtype=np.int64) % p
    while e:
        if e & 1:
            result = np.convolve(result, a) % p
        e >>= 1
        if e:
            a = np.convolve(a, a) % p
    return np.trim_zeros(result, "b").tolist()


def shift(a, n: int) -> list[int]:
    """a * X^n for a little-endian coefficient list a (the zero polynomial stays empty)."""
    return [0] * n + list(a) if len(a) else []


def weight_direct(k: int, config) -> int:
    """deg_h(g^(p^k)) for an InstanceConfig's g and |H|, read off the literal base-X^|H| expansion over F_p.

    g^(p^k) comes from repeated squaring.  The base X^|H| has no lower
    terms, so digit i is exactly the coefficient slice [i*|H|, (i+1)*|H|),
    and the digit degrees are read from the reshaped coefficient array.
    """
    p, hlen = config.p, config.h_order
    f = power(config.g, p**k, p)
    digits = np.zeros(-(-len(f) // hlen) * hlen, dtype=np.int64)
    digits[: len(f)] = f
    nonzero = digits.reshape(-1, hlen) != 0
    if not nonzero.any():
        raise InternalError("Frobenius power of g vanished")
    return int(np.where(nonzero, np.arange(hlen), -1).max())


def monomial_is_sound(i: int, j: int, config, D: int, r: Fraction) -> bool:
    """Direct check (no subadditivity shortcut) that g^i X^j is admissible for an InstanceConfig's code at (r, D)."""
    p, m, g = config.p, config.m, config.g
    f = shift(power(g, i, p), j)
    if len(f) - 1 >= D:
        return False
    dh = max_digit_degree(f, [0] * config.h_order + [1], p)
    if dh != float("-inf") and not Fraction(int(dh)) < r * config.h_order:
        return False
    dg = max_digit_degree(f, g, p)
    if dg != float("-inf") and not Fraction(int(dg)) < r * p**m:
        return False
    return True


def digit_weighted_monomials(config, D: int, r: Fraction) -> list[tuple[int, int]]:
    """Every (i, j) with i*|G| + j < D, j < r|G| and j + w(i) < r|H|, i ascending, then j.

    w(i) is the sum of i's base-p digits, digit k weighted by
    config.weight(k); the bounds are compared as Fractions.
    """
    glen = config.p**config.m
    g_bound, h_bound = r * glen, r * config.h_order
    out = []
    for i in range(D // glen + 1):
        w, rest, k = 0, i, 0
        while rest:
            w += (rest % config.p) * config.weight(k)
            rest, k = rest // config.p, k + 1
        out += [(i, j) for j in range(D) if i * glen + j < D and j < g_bound and j + w < h_bound]
    return out


def poly_digits(f: Poly) -> np.ndarray:
    """(len, k) coefficient digit array of a polynomial, lowest degree first."""
    return np.array([c.coeffs for c in f.coeffs], dtype=np.int64).reshape(len(f.coeffs), f.ctx.k)


def row_poly(ctx: FieldContext, row: np.ndarray) -> Poly:
    """The polynomial of an (L,) row of F_p coefficients or an (L, c) coefficient digit row."""
    digits = row[:, None] if row.ndim == 1 else row
    return Poly(ctx, [ctx.element(d) for d in digits.tolist()])


def kernel_base_degree(f: Poly, u: Poly) -> int | float:
    """f's base-u degree from fppoly.expansion_degrees, MINUS_INFINITY for f = 0.

    u must have prime-field coefficients, which the kernel takes as
    integers; f goes in as its k digit polynomials, whose largest base-u
    degree is f's, since division by u acts on each digit separately.  The
    kernel divides by the monic u / lc(u); the digits in that base are
    those in base u times powers of lc(u), so the degrees agree.
    """
    ctx = f.ctx
    u_ints = (u * u.leading().inverse()).int_coeffs()
    if u_ints is None:
        raise ValueError("the kernel's base must have prime-field coefficients")
    d = int(fppoly.expansion_degrees(poly_digits(f).T, u_ints, ctx.p).max(initial=-1))
    return MINUS_INFINITY if d < 0 else d


# -- scalar encoding, chunked and sampled distance ---------------------------------


def scalar_encode(f: Poly, omega) -> np.ndarray:
    """(n, k) digits of f(beta) for every row beta of the orbit array, by scalar Horner evaluation."""
    return f.ctx.digit_rows([f(x) for x in f.ctx.elements_of(omega)])


def einsum_power_tensor(ctx: FieldContext, points: np.ndarray, D: int) -> np.ndarray:
    """Digits (n, D, k) of beta^t for every point beta (a row of points) and t < D, one mat-vec per power."""
    mats = int64_mul_matrix(ctx, points)  # multiplication by beta
    out = np.zeros((len(points), D, ctx.k), dtype=np.int64)
    cur = np.zeros((len(points), ctx.k), dtype=np.int64)
    cur[:, 0] = 1
    for t in range(D):
        out[:, t, :] = cur
        cur = np.einsum("nij,nj->ni", mats, cur) % ctx.p
    return out


def einsum_encode_basis_digits(ctx: FieldContext, coeffs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Digit tensor (rows, n, k) of the codewords of a (rows, D) F_p coefficient array, contracted in int64."""
    return np.einsum("bt,ntj->bnj", coeffs, einsum_power_tensor(ctx, omega, coeffs.shape[1])) % ctx.p


def einsum_multiples(ctx: FieldContext, rows: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Digits (rows, s, n, k) of every row of an (s, k) multiplier array times every (n, k) codeword."""
    return np.einsum("slj,rnj->rsnl", int64_mul_matrix(ctx, multipliers), rows) % ctx.p


LOW_TABLE_BYTES = 1 << 20  # bound on the combined table of the trailing basis rows


def chunked_min_distance(codewords, budget: int = DEFAULT_BUDGETS["distance"]) -> tuple[int, str, int]:
    """(value, mode, enumerated) of the exhaustive distance of a codeword store, as codecore computed it before it counted kernels.

    The mode rule is codecore.min_distance_exhaustive's, with the same
    bound LOW_TABLE_BYTES on the |F| multiples of one basis codeword; the
    tables of every scalar multiple of every basis codeword come from
    einsum_multiples and go to chunked_min_weight.
    """
    ms = codewords.ms
    ctx = ms.ctx
    q, p = ctx.order, ctx.p
    if q**ms.dim <= budget and q * codewords.n * ctx.k * 8 <= LOW_TABLE_BYTES:
        scalars, mode = q, "full-field"
    elif p**ms.dim <= budget:
        scalars, mode = p, "prime-subcode"
    else:
        raise ValueError("over the enumeration budget")
    multipliers = base_p_digits(np.arange(scalars), p, ctx.k)
    tables = einsum_multiples(ctx, codewords(range(ms.dim)), multipliers)
    return chunked_min_weight(list(tables), p), mode, scalars**ms.dim


def _pack(digits: np.ndarray, p: int) -> np.ndarray:
    """Words (..., n, w) holding the digits (..., n, k) of every coordinate.

    At p = 2 the digits are the bits (linalg.pack_bits) of the smallest
    unsigned word that holds k of them (uint8, uint16 or uint32), or of
    ceil(k/64) uint64 words.  Otherwise they are uint8 bytes, zero-padded
    to whole uint64 words.
    """
    k = digits.shape[-1]
    if p == 2:
        return pack_bits(digits, word_width(k))
    padded = np.zeros(digits.shape[:-1] + (-(-k // 8) * 8,), dtype=np.uint8)
    padded[..., :k] = digits
    return padded.view(np.uint64)


def _add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Digit-wise a + b mod p on packed words: XOR at p = 2, else byte-wise sums."""
    if p == 2:
        return a ^ b
    s = a.view(np.uint8) + b.view(np.uint8)
    np.subtract(s, p, out=s, where=s >= p)
    return s.view(np.uint64)


def chunked_min_weight(tables: list[np.ndarray], p: int) -> int:
    """Minimum weight over all combinations of one entry per table, except all zeros.

    Entry 0 of every table is the zero multiple.  The trailing tables are
    combined into one low table of at most LOW_TABLE_BYTES; the loop runs
    over the combinations (prefixes) of the leading tables, in odometer
    order, and weighs prefix + every low entry at once.  A coordinate of
    prefix + low is zero iff low equals -prefix there, so with the
    leading tables negated up front the weight is a count of the
    coordinates whose packed words (_pack) differ from the prefix's.
    """
    if p >= 128:
        raise ParameterError(f"packed enumeration needs p < 128, got {p}")
    packed = [_pack(t, p) for t in tables]
    lead = len(packed) - 1
    low = packed[lead]
    while lead > 0 and packed[lead - 1].shape[0] * low.nbytes <= LOW_TABLE_BYTES:
        lead -= 1
        low = _add_mod(packed[lead][:, None], low[None], p).reshape((-1,) + low.shape[1:])
    low_words = np.ascontiguousarray(low.transpose(2, 0, 1))  # (words, entries, n)
    negated = packed[:lead]  # negation is the identity at p = 2
    if p != 2:
        negated = [((p - t.view(np.uint8)) % p).view(np.uint64) for t in negated]
    n = low.shape[1]
    differs = np.empty(low_words.shape[1:], dtype=bool)
    count_type = np.min_scalar_type(n)

    best = n
    choice = [0] * lead
    sums = [np.zeros_like(low[0])] * (lead + 1)  # sums[i]: chosen entries of the first i tables
    stale = 0
    while True:
        for i in range(stale, lead):
            sums[i + 1] = _add_mod(sums[i], negated[i][choice[i]], p)
        prefix = sums[lead].T
        np.not_equal(low_words[0], prefix[0], out=differs)
        for w in range(1, len(prefix)):
            differs |= low_words[w] != prefix[w]
        weights = differs.sum(axis=1, dtype=count_type)
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


def table_min_distance_sampled(ms, omega, samples: int, seed: int) -> int:
    """The sampled distance from a (|F|, n, k) table of every multiple of every basis codeword."""
    ctx = ms.ctx
    rng = np.random.default_rng(seed)
    rows = encode_basis_digits(ctx, ms.coeffs, omega)
    mats = int64_mul_matrix(ctx, ctx.digit_rows(list(ctx.elements())))
    tables = [np.einsum("cij,nj->cni", mats, row) % ctx.p for row in rows]
    best = len(omega)
    done = 0
    while done < samples:
        b = min(8192, samples - done)
        codes = rng.integers(0, ctx.order, size=(b, ms.dim))
        codes[(codes == 0).all(axis=1), 0] = 1
        acc = np.zeros((b, rows.shape[1], ctx.k), dtype=np.int64)
        for t, tab in enumerate(tables):
            acc += tab[codes[:, t]]
        weights = (acc % ctx.p).any(axis=2).sum(axis=1)
        best = min(best, int(weights.min()))
        done += b
    return best


SAMPLE_CHUNK_ENTRIES = 1 << 22  # bound on the digits of one chunk of sampled codewords


def _multiples(ctx: FieldContext, rows: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Digits (rows, s, n, k) of every multiplier times every codeword.

    rows is a (rows, n, k) array of codewords and multipliers an (s, k)
    digit array; the multiples are one stacked F_p product of the
    codewords with the multipliers' product matrices (gf.product_matrices).
    """
    return matmul_mod_p(rows[:, None], product_matrices(ctx, multipliers), ctx.p)


def blocked_min_distance_sampled(
    codewords,
    samples: int = 100_000,
    seed: int = 0,
) -> int:
    """Smallest weight among random nonzero field-linear codewords of a codeword store's message space (upper bound).

    codecore.min_distance_sampled as it was before a scalar acted through
    its product matrix: the multiples of a block of basis rows are rebuilt
    for every chunk of samples.  It draws the same messages, so the two
    return the same value at every seed.
    Messages are drawn 8192 at a time.  Scalar s times basis codeword w is
    sum_a s_a * (x^a w), for the digits s_a of s and the multiples x^a w by
    the powers of the field generator (_multiples); so a chunk of sampled
    codewords is one product of the scalars' digits with a block of those
    multiples (linalg.matmul_mod_p), summed over blocks.
    Every basis codeword is read from the store, in its narrow digit type:
    the store's rows and their copy take 2*dim*n*k bytes at p < 257 (about
    80 MB on I(2,3) at D = n).  Beyond those, chunks of samples and blocks
    of basis rows each hold at most SAMPLE_CHUNK_ENTRIES digits, and no
    table of all |F| multiples is built.  Fewer than one sample is refused
    before anything is encoded.
    """
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    ms = codewords.ms
    ctx = ms.ctx
    p, k = ctx.p, ctx.k
    rng = np.random.default_rng(seed)
    rows = codewords(range(ms.dim))
    n = codewords.n
    sample_chunk = max(1, SAMPLE_CHUNK_ENTRIES // (n * k))
    row_block = max(1, SAMPLE_CHUNK_ENTRIES // (k * n * k))
    best = n
    done = 0
    while done < samples:
        b = min(8192, samples - done)
        codes = rng.integers(0, ctx.order, size=(b, ms.dim))
        codes[(codes == 0).all(axis=1), 0] = 1
        for lo in range(0, b, sample_chunk):
            part = base_p_digits(codes[lo : lo + sample_chunk].ravel(), p, k).reshape(-1, ms.dim, k)  # the scalars' digits
            acc = np.zeros((len(part), n * k), dtype=np.int64)
            for t in range(0, ms.dim, row_block):
                multiples = _multiples(ctx, rows[t : t + row_block], np.eye(k, dtype=np.int64))
                acc += matmul_mod_p(part[:, t : t + row_block].reshape(len(part), -1), multiples.reshape(-1, n * k), p)
            weights = (acc.reshape(-1, n, k) % p).any(axis=2).sum(axis=1)
            best = min(best, int(weights.min()))
        done += b
    return best


# -- Monte Carlo volume oracle ----------------------------------------------------


def polytope_indicator_i(r: Fraction, rho: Fraction, m: int) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """(dimension, vectorized membership test) for the balanced polytope.

    Variables: the 2m dominant digit ratios plus the free-coefficient
    ratio z, all sampled from the unit cube; membership is sum < r with
    the last digit variable additionally below rho.
    """
    _validate(Fraction(r), Fraction(rho), m)
    dim = 2 * m + 1
    rf, rhof = float(r), float(rho)

    def member(pts: np.ndarray) -> np.ndarray:
        return (pts.sum(axis=1) < rf) & (pts[:, 2 * m - 1] < rhof)

    return dim, member


def polytope_indicator_ii(
    r: Fraction, rho: Fraction, m: int, gamma: Fraction
) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """(dimension, membership test) for the tunable polytope.

    2m+1 dominant digit ratios plus the decoupled z < r variable; digit
    ratios sum below r*gamma with the last one additionally below
    rho*gamma.
    """
    _validate(Fraction(r), Fraction(rho), m, Fraction(gamma))
    nx = 2 * m + 1
    dim = nx + 1
    rg, rhog, rf = float(Fraction(r) * Fraction(gamma)), float(Fraction(rho) * Fraction(gamma)), float(r)

    def member(pts: np.ndarray) -> np.ndarray:
        x = pts[:, :nx]
        return (x.sum(axis=1) < rg) & (x[:, nx - 1] < rhog) & (pts[:, nx] < rf)

    return dim, member


def volume_monte_carlo(
    dim: int,
    member: Callable[[np.ndarray], np.ndarray],
    samples: int = 10_000_000,
    seed: int = 0,
    chunk: int = 1_000_000,
) -> tuple[float, float]:
    """(estimate, standard error) of a unit-cube subvolume by uniform sampling."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        pts = rng.random((b, dim))
        hits += int(member(pts).sum())
        done += b
    est = hits / samples
    stderr = sqrt(max(est * (1 - est), 1e-300) / samples)
    return est, stderr
