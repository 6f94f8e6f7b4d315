"""Subgroup geometry inside the affine group of the line.

Builds the translation subgroup G (an F_p-subspace with its annihilator
polynomial), the scaling subgroup H (a cyclic multiplicative subgroup),
the smallest H-invariant subspace S containing G, the group A = S x| H of
affine maps x -> h*x + s, a free evaluation point, and its orbit.

Enumeration orders are fixed everywhere (subspace points in digit order,
H in generator-power order, A = {(s, h)} with the translation part
outermost) so that edge and coordinate indexing is reproducible across
runs.  The free point and the orbit come from one mul_matrix product per
element of H over the whole digit array of S; no element of A is built.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from orbitcodes.errors import ConfigurationError, InternalError, ParameterError
from orbitcodes.gf import (
    FieldContext,
    FieldElement,
    FpSubspace,
    digit_codes,
    kernel_subspace,
    mul_matrix,
    primitive_element,
)
from orbitcodes.linalg import rank_mod_p
from orbitcodes.numutil import prime_factors
from orbitcodes.polyring import Poly, translation_invariant_poly


class TranslationGroup:
    """Additive subgroup acting by translations, with its annihilator polynomial."""

    def __init__(self, points: FpSubspace):
        self.points = points
        self.invariant_poly = translation_invariant_poly(points)
        if self.invariant_poly.degree != self.size:
            raise InternalError("annihilator degree does not match subgroup size")

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def ctx(self) -> FieldContext:
        return self.points.ctx

    def __repr__(self) -> str:
        return f"TranslationGroup(size={self.size})"


class ScalingGroup:
    """Cyclic multiplicative subgroup acting by scalings x -> h*x."""

    def __init__(self, generator: FieldElement, order: int):
        if order < 1:
            raise ParameterError(f"scaling group order must be >= 1, got {order}")
        if generator.is_zero():
            raise ParameterError("scaling generator must be nonzero")
        if generator**order != generator.ctx.one():
            raise ParameterError("generator order does not divide the stated order")
        for q in prime_factors(order):
            if generator ** (order // q) == generator.ctx.one():
                raise ParameterError(f"generator has order smaller than {order}")
        self.generator = generator
        self.order = order

    @property
    def ctx(self) -> FieldContext:
        return self.generator.ctx

    @cached_property
    def _elements(self) -> tuple[FieldElement, ...]:
        out = [self.ctx.one()]
        for _ in range(self.order - 1):
            out.append(out[-1] * self.generator)
        return tuple(out)

    def elements(self) -> tuple[FieldElement, ...]:
        """Powers of the generator, identity first (generator-power order)."""
        return self._elements

    @cached_property
    def inverses(self) -> tuple[FieldElement, ...]:
        els = self._elements
        return tuple(els[(-i) % self.order] for i in range(self.order))

    def __repr__(self) -> str:
        return f"ScalingGroup(order={self.order})"

    def to_json(self) -> dict:
        return {"generator": self.generator.to_json(), "order": self.order}


def scaling_subgroup(ctx: FieldContext, order: int) -> ScalingGroup:
    """The unique multiplicative subgroup of the given order.

    Requires order | (|F| - 1); the generator is a fixed power of the
    deterministic primitive element, so the result is reproducible.
    """
    n = ctx.order - 1
    if order < 1 or n % order != 0:
        raise ParameterError(f"no multiplicative subgroup of order {order} in field of size {ctx.order}")
    prim = primitive_element(ctx)
    return ScalingGroup(prim ** (n // order), order)


def roots_of_linearized(g: Poly, ambient: FieldContext) -> FpSubspace:
    """Root subspace of a squarefree linearized polynomial.

    g must have nonzero X-coefficient (so gcd(g, g') = 1) and only p-power
    exponents; its roots then form an F_p-subspace, recovered here as the
    kernel of the F_p-linear evaluation map on the ambient field.  Raises
    ConfigurationError when the ambient field is too small to split g.
    """
    ints = g.int_coeffs()
    if ints is None:
        raise ParameterError("linearized polynomial must have prime-subfield coefficients")
    if g.ctx.p != ambient.p:
        raise ParameterError("characteristic mismatch")
    p = ambient.p
    terms = []
    for e, c in enumerate(ints):
        if c == 0:
            continue
        i = 0
        pe = 1
        while pe < e:
            pe *= p
            i += 1
        if pe != e:
            raise ParameterError("polynomial is not linearized (non p-power exponent)")
        terms.append((i, c))
    if not terms or terms[0][0] != 0:
        raise ParameterError("linearized polynomial must have nonzero X-coefficient (squarefree)")

    def apply(x: FieldElement) -> FieldElement:
        acc = ambient.zero()
        y = x
        level = 0
        for i, c in terms:
            while level < i:
                y = y**p
                level += 1
            acc = acc + ambient.element([c]) * y
        return acc

    space = kernel_subspace(ambient, apply)
    expected = g.degree
    if space.size != expected:
        raise ConfigurationError(
            f"ambient field F_{p}^{ambient.k} contains {space.size} of {expected} roots"
        )
    return space


def scaling_closure(G: TranslationGroup, H: ScalingGroup) -> FpSubspace:
    """Smallest F_p-subspace containing G and invariant under H.

    Iterates span growth to a fixpoint: fold in h*b for the generator h and
    every current basis vector until nothing new appears.  Closure under
    the generator implies closure under all of H.
    """
    ctx = G.ctx
    current = FpSubspace.from_vectors(ctx, G.points.basis)
    queue = list(current.basis)
    while queue:
        v = queue.pop()
        w = H.generator * v
        if w not in current:
            current = FpSubspace.from_vectors(ctx, list(current.basis) + [w])
            queue.append(w)
    # fixpoint check: one full sweep with no growth
    for b in current.basis:
        if H.generator * b not in current:
            raise InternalError("closure did not stabilize")  # pragma: no cover
    return current


class GroupA:
    """The affine group generated by translations S and scalings H.

    Elements are exactly the maps x -> h*x + s with s in S, h in H, and the
    parametrization (s, h) is a bijection, so |A| = |S|*|H|.  Map e is
    (S.points()[e // |H|], H.elements()[e % |H|]); orbit and build_graph
    index edges this way.
    """

    def __init__(self, S: FpSubspace, H: ScalingGroup, ambient: FieldContext):
        if S.ctx != ambient or H.ctx != ambient:
            raise ParameterError("subgroups must live in the ambient context")
        for b in S.basis:
            if H.generator * b not in S:
                raise ParameterError("translation space is not invariant under the scaling group")
        self.S = S
        self.H = H
        self.ambient = ambient

    @property
    def size(self) -> int:
        return self.S.size * self.H.order

    def __repr__(self) -> str:
        return f"GroupA(|S|={self.S.size}, |H|={self.H.order})"

    def to_json(self) -> dict:
        return {
            "S": self.S.to_json(),
            "H": self.H.to_json(),
            "ambient": self.ambient.to_json(),
            "size": self.size,
        }


def find_free_point(A: GroupA) -> FieldElement:
    """First field element (enumeration order) with trivial stabilizer in A.

    Every non-identity map with scale h != 1 fixes exactly (1-h)^-1 * s, so
    the bad set is the union over h != 1 of (1-h)^-1 * S, one product of
    S's point digits per h.  Pure translations are fixed-point free, so the
    bad set has at most |A| - |S| points and a free point exists whenever
    |F| >= |A|: it is among the first |A| - |S| + 1 digit codes, and only
    those are looked at.
    """
    ambient = A.ambient
    if ambient.order < A.size:
        raise ConfigurationError(f"ambient field size {ambient.order} below group size {A.size}")
    p, one = ambient.p, ambient.one()
    bad = np.zeros(A.size - A.S.size + 1, dtype=bool)
    for h in A.H.elements()[1:]:  # every h but the identity
        codes = digit_codes(A.S.points() @ mul_matrix((one - h).inverse()).T % p, p)
        bad[codes[codes < len(bad)]] = True
    if bad.all():
        raise ConfigurationError("no free point exists; ambient field too small")  # pragma: no cover
    return ambient.from_int(int(np.argmin(bad)))


def orbit(A: GroupA, alpha: FieldElement) -> np.ndarray:
    """Evaluation orbit, the read-only (|A|, k) digit array of h*alpha + s over (s, h) in A.

    Row e is the map (s, h) with s = S.points()[e // |H|] and h =
    H.elements()[e % |H|], the translation part outermost.  The free action
    makes the orbit map injective, which is verified on the digit codes;
    edge e of the coset graph is coordinate e of every codeword.
    """
    ambient = A.ambient
    p = ambient.p
    scaled = ambient.digit_rows(A.H.elements()) @ mul_matrix(alpha).T % p  # h * alpha
    pts = ((A.S.points()[:, None, :] + scaled[None]) % p).reshape(A.size, ambient.k)
    if len(np.unique(digit_codes(pts, p))) != len(pts):
        raise InternalError("orbit points collide; the base point is not free")
    pts.flags.writeable = False
    return pts


def independent_over_subfield(vectors: Iterable[FieldElement], degree: int) -> bool:
    """Whether vectors are linearly independent over the subfield K of the given degree.

    The K-span of the vectors is the F_p-span of {w*v : w in an F_p-basis
    of K}, so they are K-independent iff that set has F_p-rank
    len(vectors) * [K:F_p].
    """
    vecs = list(vectors)
    if not vecs:
        return True
    ambient = vecs[0].ctx
    p = ambient.p
    if degree < 1 or ambient.k % degree != 0:
        raise ParameterError(f"subfield degree {degree} does not divide the ambient degree {ambient.k}")
    K = kernel_subspace(ambient, lambda x: x ** (p**degree) - x)
    return rank_mod_p([(w * v).coeffs for v in vecs for w in K.basis], p) == len(vecs) * degree
