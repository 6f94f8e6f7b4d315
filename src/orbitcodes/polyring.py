"""Univariate polynomials over a field context, base-u expansions, and the
invariant polynomials of translation and scaling subgroups.

Poly is the generic coefficient-list type that works over any FieldContext
(prime or extension).  The base-u machinery implements the expansion
f = sum_i c_i(X) u(X)^i with deg c_i < deg u via iterated Euclidean
division, and the u-base degree max_i deg(c_i) with the convention
deg(0) = -infinity (MINUS_INFINITY below, which orders correctly against
every integer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from orbitcodes.errors import ParameterError
from orbitcodes.gf import FieldContext, FieldElement, FpSubspace

MINUS_INFINITY = float("-inf")


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

    # -- constructors ----------------------------------------------------

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

    # -- structure ---------------------------------------------------------

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
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = "" if (c == 1 and i > 0) else str(c.code())
            xs = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
            terms.append((cs + "*" + xs).strip("*") if cs and xs else cs + xs)
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic ----------------------------------------------------------

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

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> list[list[int]]:
        return [c.to_json() for c in self.coeffs]

    def int_coeffs(self) -> list[int] | None:
        """Coefficients as prime-field ints, or None if any lies outside F_p."""
        out = []
        for c in self.coeffs:
            if any(c.coeffs[1:]):
                return None
            out.append(c.coeffs[0])
        return out


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
    """Expand f in base u by iterated Euclidean division.

    Every digit has degree < deg(u); the expansion of 0 is the empty digit
    list.  Uniqueness makes reconstruct() an exact inverse.
    """
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


def translation_invariant_poly(points: FpSubspace) -> Poly:
    """Annihilator polynomial prod_{u in G}(X - u) of an additive subgroup.

    Monic of degree |G|, vanishes exactly on the subgroup, and is constant
    on its translation orbits.  For an F_p-subspace the result is
    linearized (only p-power exponents appear), which downstream tests
    exploit as a structure check.
    """
    ctx = points.ctx
    acc = Poly.one(ctx)
    for u in points.points():
        acc = acc * Poly(ctx, [-u, ctx.one()])
    return acc


def scaling_invariant_poly(ctx: FieldContext, order: int) -> Poly:
    """The monomial X^|H|, constant on the orbits of a scaling subgroup."""
    if order < 1:
        raise ParameterError(f"scaling group order must be >= 1, got {order}")
    return Poly.monomial(ctx, order)


def lagrange_interpolate(points: Sequence[FieldElement], values: Sequence[FieldElement]) -> Poly:
    """Unique polynomial of degree < len(points) through the given data."""
    if len(points) != len(values):
        raise ParameterError("point/value length mismatch")
    if not points:
        raise ParameterError("interpolation needs at least one point")
    ctx = points[0].ctx
    acc = Poly.zero(ctx)
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi.is_zero():
            continue
        num = Poly.one(ctx)
        denom = ctx.one()
        for j, xj in enumerate(points):
            if j == i:
                continue
            num = num * Poly(ctx, [-xj, ctx.one()])
            denom = denom * (xi - xj)
        acc = acc + num * (yi / denom)
    return acc
