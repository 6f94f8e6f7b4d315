"""Subgroup geometry inside the affine group of the line.

Builds the translation subgroup G (the root space of its defining
polynomial g, an F_p coefficient row), the scaling subgroup H (a cyclic
multiplicative subgroup, held as the digit array of its powers), the
smallest H-invariant subspace S containing G, the group A = S x| H of
affine maps x -> h*x + s, a free evaluation point, and its orbit.  Every
field element here is a digit array: H's powers and inverses, the bases
of G and S, and the free point alpha.

Enumeration orders are fixed everywhere (subspace points in digit order,
H in generator-power order, A = {(s, h)} with the translation part
outermost) so that edge and coordinate indexing is reproducible across
runs.  S is a Krylov closure of G's basis under the generator's product
matrix, the free point is one membership test of S over a range of digit
codes, and the orbit one mul_rows product of H with alpha added to the
whole digit array of S; no element of A is built.
"""

from __future__ import annotations

import numpy as np

from orbitcodes.errors import ConfigurationError, InternalError, ParameterError
from orbitcodes.gf import (
    FieldContext,
    FpSubspace,
    base_p_digits,
    digit_codes,
    frobenius_matrix,
    mul_rows,
    pow_rows,
    power_table,
    primitive_element,
    product_matrices,
)
from orbitcodes.linalg import matmul_mod_p


class TranslationGroup:
    """Additive subgroup acting by translations: the root space of its defining polynomial g.

    g is a monic squarefree linearized polynomial with F_p coefficients,
    lowest degree first, held as the read-only int64 row g; points is its
    root subspace (roots_of_linearized), which has deg g points.  A monic
    polynomial with deg g distinct roots is the product of its linear
    factors, so g = prod_{u in G}(X - u): it vanishes exactly on G and is
    constant on its translation orbits.  g is linear over F_p, so checking
    that it vanishes on G's basis checks it on all of G.
    """

    def __init__(self, g_ints: list[int], ambient: FieldContext):
        g = np.array(g_ints, dtype=np.int64) % ambient.p
        if not len(g) or g[-1] != 1:
            raise ParameterError("the defining polynomial of a translation group must be monic")
        self.points = roots_of_linearized(g_ints, ambient)
        terms = np.nonzero(g)[0]  # the exponents of g: one pow_rows call gives every term's powers
        if ((g[terms, None, None] * pow_rows(ambient, self.points.basis, terms[:, None])).sum(axis=0) % ambient.p).any():
            raise InternalError("the defining polynomial does not vanish on its root space")
        g.flags.writeable = False
        self.g = g

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def ctx(self) -> FieldContext:
        return self.points.ctx

    def __repr__(self) -> str:
        return f"TranslationGroup(size={self.size})"


class ScalingGroup:
    """Cyclic multiplicative subgroup acting by scalings x -> h*x.

    generator is a (k,) digit row; elements, its powers with the identity
    first, and inverses[i] = elements[-i mod order] are read-only (order, k)
    arrays.  The powers are the generator's row of gf.power_table.
    """

    def __init__(self, ctx: FieldContext, generator: np.ndarray, order: int):
        if order < 1:
            raise ParameterError(f"scaling group order must be >= 1, got {order}")
        gen = np.array(generator, dtype=np.int64).reshape(ctx.k) % ctx.p
        if not gen.any():
            raise ParameterError("scaling generator must be nonzero")
        one = np.eye(1, ctx.k, dtype=np.int64)
        powers = power_table(ctx, gen[None], order)[0].astype(np.int64)
        if not np.array_equal(mul_rows(ctx, powers[-1], gen), one[0]):
            raise ParameterError("generator order does not divide the stated order")
        if (powers[1:] == one).all(axis=1).any():
            raise ParameterError(f"generator has order smaller than {order}")
        self.ctx = ctx
        self.order = order
        self.generator = gen
        self.elements = powers
        self.inverses = powers[(-np.arange(order)) % order]
        for arr in (gen, powers, self.inverses):
            arr.flags.writeable = False

    def __repr__(self) -> str:
        return f"ScalingGroup(order={self.order})"

    def to_json(self) -> dict:
        return {"generator": self.generator.tolist(), "order": self.order}


def scaling_subgroup(ctx: FieldContext, order: int) -> ScalingGroup:
    """The unique multiplicative subgroup of the given order.

    Requires order | (|F| - 1); the generator is a fixed power of the
    deterministic primitive element, so the result is reproducible.
    """
    n = ctx.order - 1
    if order < 1 or n % order != 0:
        raise ParameterError(f"no multiplicative subgroup of order {order} in field of size {ctx.order}")
    return ScalingGroup(ctx, pow_rows(ctx, primitive_element(ctx), n // order), order)


def _p_associate(g_ints: list[int], p: int) -> list[int]:
    """Coefficients c_i of g = sum_i c_i X^(p^i), lowest first: g's p-associate sum_i c_i y^i.

    Raises ParameterError unless g has only p-power exponents and a nonzero
    X-coefficient (which makes g squarefree, as gcd(g, g') = 1).
    """
    assoc: list[int] = []
    for e, coeff in enumerate(g_ints):
        if coeff % p == 0:
            continue
        i = 0
        while e > 1 and e % p == 0:
            e //= p
            i += 1
        if e != 1:
            raise ParameterError("polynomial is not linearized (non p-power exponent)")
        assoc += [0] * (i + 1 - len(assoc))
        assoc[i] = coeff % p
    if not assoc or assoc[0] == 0:
        raise ParameterError("linearized polynomial must have nonzero X-coefficient (squarefree)")
    return assoc


def roots_of_linearized(g_ints: list[int], ambient: FieldContext) -> FpSubspace:
    """Root subspace of a squarefree linearized polynomial with F_p coefficients.

    g_ints are the coefficients of g, lowest degree first.  g must have a
    nonzero X-coefficient (so gcd(g, g') = 1) and only p-power exponents;
    g = sum_i c_i X^(p^i) then acts on the ambient field as the F_p-linear
    map sum_i c_i F^i, F the Frobenius matrix, and its roots are that
    map's kernel.  Raises ConfigurationError when the ambient field is too
    small to split g.
    """
    p = ambient.p
    assoc = _p_associate(g_ints, p)
    frob = frobenius_matrix(ambient)
    power = np.eye(ambient.k, dtype=np.int64)  # F^i
    mat = np.zeros_like(power)
    for c in assoc:
        mat += c * power
        power = matmul_mod_p(frob, power, p)
    space = FpSubspace.kernel(ambient, mat % p)
    expected = p ** (len(assoc) - 1)
    if space.size != expected:
        raise ConfigurationError(
            f"ambient field F_{p}^{ambient.k} contains {space.size} of {expected} roots"
        )
    return space


def splitting_degree(g_ints: list[int], p: int) -> int:
    """Degree over F_p of the splitting field of a squarefree linearized g with F_p coefficients.

    The roots of g = sum_i c_i X^(p^i) form a module over F_p[y], y acting
    as Frobenius, isomorphic to F_p[y]/(c) for the p-associate
    c = sum_i c_i y^i (Lidl & Niederreiter, Finite Fields, 3.4).  They all
    lie in F_(p^l) iff Frobenius^l fixes them, so the splitting degree is
    the multiplicative order of c's m x m companion matrix, m = deg c.
    """
    assoc = _p_associate(g_ints, p)
    m = len(assoc) - 1
    companion = np.eye(m, k=-1, dtype=np.int64)
    companion[:, -1:] = np.array(assoc[:m])[:, None] * -pow(assoc[m], p - 2, p) % p
    power, order = companion, 1
    while not np.array_equal(power, np.eye(m, dtype=np.int64)):
        power = matmul_mod_p(companion, power, p)
        order += 1
    return order


def scaling_closure(G: TranslationGroup, H: ScalingGroup) -> FpSubspace:
    """Smallest F_p-subspace containing G and invariant under H, with its canonical RREF basis.

    A Krylov loop: append the images b @ R of the basis under the
    generator's product matrix R and echelonize again, until the rank
    stops growing.  The span is then closed under the generator, hence
    under all of H, and any H-invariant space containing G contains every
    step.
    """
    ctx = G.ctx
    mat = product_matrices(ctx, H.generator)
    current = G.points
    while True:
        grown = FpSubspace(ctx, np.concatenate([current.basis, matmul_mod_p(current.basis, mat, ctx.p)]))
        if grown.dim == current.dim:
            return current
        current = grown


class GroupA:
    """The affine group generated by translations S and scalings H.

    Elements are exactly the maps x -> h*x + s with s in S, h in H, and the
    parametrization (s, h) is a bijection, so |A| = |S|*|H|.  Map e is
    (S.points()[e // |H|], H.elements[e % |H|]); orbit and build_graph
    index edges this way.  The field is S's; an H from another field, or
    one that does not map S to itself, is refused: the one such check.
    """

    def __init__(self, S: FpSubspace, H: ScalingGroup):
        if H.ctx != S.ctx:
            raise ParameterError("the scaling group must live in the field of the translation space")
        if (S.index_of(mul_rows(S.ctx, S.basis, H.generator)) < 0).any():
            raise ParameterError("translation space is not invariant under the scaling group")
        self.S = S
        self.H = H
        self.ambient = S.ctx

    @property
    def size(self) -> int:
        return self.S.size * self.H.order

    def __repr__(self) -> str:
        return f"GroupA(|S|={self.S.size}, |H|={self.H.order})"


def find_free_point(A: GroupA) -> np.ndarray:
    """(k,) digit row of the first field element (digit-code order) with trivial stabilizer in A.

    Every non-identity map with scale h != 1 fixes exactly (1-h)^-1 * s, and
    pure translations are fixed-point free, so the bad set is the union
    over h != 1 of (1-h)^-1 * S.  S is closed under H, so it is a vector
    space over the subfield F_p(H), which contains every (1-h)^-1; each
    (1-h)^-1 * S is S itself.  The free point is therefore the first digit
    code outside S, found among the codes 0..|S| by one batched index_of;
    with |H| = 1 every point is free and it is code 0.
    """
    ambient = A.ambient
    if ambient.order < A.size:
        raise ConfigurationError(f"ambient field size {ambient.order} below group size {A.size}")
    if A.H.order == 1:
        alpha = np.zeros(ambient.k, dtype=np.int64)
    else:
        codes = base_p_digits(np.arange(A.S.size + 1), ambient.p, ambient.k)
        alpha = codes[np.argmax(A.S.index_of(codes) < 0)]
    alpha.flags.writeable = False
    return alpha


def orbit(A: GroupA, alpha: np.ndarray) -> np.ndarray:
    """Evaluation orbit, the read-only (|A|, k) digit array of h*alpha + s over (s, h) in A.

    Row e is the map (s, h) with s = S.points()[e // |H|] and h =
    H.elements[e % |H|], the translation part outermost.  The free action
    makes the orbit map injective, which is verified on the digit codes;
    edge e of the coset graph is coordinate e of every codeword.
    """
    ambient = A.ambient
    p = ambient.p
    scaled = mul_rows(ambient, A.H.elements, alpha)  # h * alpha
    pts = ((A.S.points()[:, None, :] + scaled[None]) % p).reshape(A.size, ambient.k)
    if not np.diff(np.sort(digit_codes(pts, p))).all():
        raise InternalError("orbit points collide; the base point is not free")
    pts.flags.writeable = False
    return pts

