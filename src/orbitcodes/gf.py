"""Exact arithmetic in prime fields and their extensions.

An element of F_{p^k} is a length-k digit vector over F_p, little-endian
in the root of the defining modulus.  All arithmetic is exact integer
arithmetic; nothing in this module touches floating point.  On top of the
element type the module provides the field trace down to F_p, trace-dual
subspaces, additive-character exponents, and deterministic embeddings of
subfields into larger extensions.

Contexts and elements are immutable after construction and safe to share.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from orbitcodes import fppoly
from orbitcodes.errors import ConfigurationError, InternalError, ParameterError
from orbitcodes.linalg import nullspace_mod_p, row_reduce_against, rref_mod_p
from orbitcodes.numutil import is_prime, prime_factors


class FieldContext:
    """The field F_{p^k} presented as F_p[X]/(modulus).

    modulus is a monic irreducible polynomial of degree k over F_p, stored
    little-endian as a tuple of k+1 ints.  Use build_field() rather than
    calling this constructor directly; build_field picks the modulus
    deterministically.
    """

    __slots__ = ("p", "k", "modulus", "_red_rows", "_trace_vec", "_embed_cache", "_elements", "_mul_tensor")

    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise ParameterError(f"characteristic {p} is not prime")
        if k < 1:
            raise ParameterError(f"extension degree must be >= 1, got {k}")
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ParameterError("modulus must be monic of degree k")
        if not fppoly.is_irreducible(np.array(mod, dtype=np.int64), p):
            raise ParameterError("modulus is not irreducible")
        self.p = p
        self.k = k
        self.modulus = mod
        self._red_rows = self._reduction_rows()
        self._trace_vec: tuple[int, ...] | None = None
        self._embed_cache: dict = {}
        self._elements: tuple[FieldElement, ...] | None = None
        self._mul_tensor: np.ndarray | None = None

    # -- basic protocol ------------------------------------------------

    @property
    def order(self) -> int:
        return self.p**self.k

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, k={self.k})"

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    # -- element constructors -------------------------------------------

    def element(self, coeffs: Iterable[int]) -> "FieldElement":
        digits = [int(c) % self.p for c in coeffs]
        if len(digits) > self.k:
            raise ParameterError("digit vector longer than extension degree")
        digits += [0] * (self.k - len(digits))
        return FieldElement(self, tuple(digits))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, v: int) -> "FieldElement":
        """Element with digit-value v (little-endian base p)."""
        if not 0 <= v < self.order:
            raise ParameterError(f"digit value {v} out of range for field of order {self.order}")
        digits = []
        for _ in range(self.k):
            digits.append(v % self.p)
            v //= self.p
        return FieldElement(self, tuple(digits))

    def gen(self) -> "FieldElement":
        """The residue of X, i.e. the modulus root the digits refer to."""
        if self.k == 1:
            return FieldElement(self, ((-self.modulus[0]) % self.p,))
        return self.from_int(self.p)

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in digit-value order (deterministic)."""
        for v in range(self.order):
            yield self.from_int(v)

    def element_list(self) -> tuple["FieldElement", ...]:
        if self._elements is None:
            self._elements = tuple(self.elements())
        return self._elements

    # -- arithmetic cores -----------------------------------------------

    def _reduction_rows(self) -> tuple[tuple[int, ...], ...]:
        # row i = coefficients of X^(k+i) reduced mod the modulus
        p, k = self.p, self.k
        rows = []
        cur = [(-c) % p for c in self.modulus[:k]]  # X^k
        rows.append(tuple(cur))
        for _ in range(k - 2):
            nxt = [0] + cur[: k - 1]
            top = cur[k - 1]
            if top:
                for j in range(k):
                    nxt[j] = (nxt[j] + top * rows[0][j]) % p
            rows.append(tuple(nxt))
            cur = nxt
        return tuple(rows)

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:k]
        for i in range(k, 2 * k - 1):
            c = conv[i]
            if c:
                row = self._red_rows[i - k]
                for j in range(k):
                    out[j] += c * row[j]
        return tuple(v % p for v in out)

    def _pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        if e < 0:
            a = self._inv(a)
            e = -e
        result = self.one().coeffs
        base = a
        while e:
            if e & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            e >>= 1
        return result

    def _inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        return self._pow(a, self.order - 2)

    def mul_tensor(self) -> np.ndarray:
        """(k, k, k) tensor T with T[i, j] = digits of X^(i+j) mod the modulus.

        For digit vectors a, b the product a*b has digits
        sum_{i,j} a_i b_j T[i, j] (mod p); every batched product uses it.
        """
        if self._mul_tensor is None:
            k = self.k
            powers = np.zeros((2 * k - 1, k), dtype=np.int64)
            powers[np.arange(k), np.arange(k)] = 1
            if k > 1:
                powers[k:] = self._red_rows
            idx = np.arange(k)
            self._mul_tensor = powers[idx[:, None] + idx[None, :]]
        return self._mul_tensor

    def trace_vector(self) -> tuple[int, ...]:
        """Traces of the power basis 1, X, ..., X^(k-1); trace is F_p-linear."""
        if self._trace_vec is None:
            vec = []
            for j in range(self.k):
                x = self.gen() ** j if self.k > 1 else self.one()
                acc = x
                y = x
                for _ in range(self.k - 1):
                    y = y**self.p
                    acc = acc + y
                if any(acc.coeffs[1:]):
                    raise InternalError("trace fell outside the prime field")
                vec.append(acc.coeffs[0])
            self._trace_vec = tuple(vec)
        return self._trace_vec


class FieldElement:
    """Immutable element of a FieldContext."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def code(self) -> int:
        """Digit value: the element's index in enumeration order."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.ctx.p + c
        return v

    def __repr__(self) -> str:
        return f"F{self.ctx.order}({self.code()})"

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.ctx == other.ctx and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.ctx.from_int(other % self.ctx.p)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.ctx.p, self.ctx.k))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other
            raise ParameterError("field context mismatch")
        if isinstance(other, int):
            return self.ctx.element([other])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx._pow(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._inv(self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def build_field(p: int, k: int) -> FieldContext:
    """F_{p^k} with the first monic irreducible modulus in digit-value order.

    The deterministic modulus choice makes every downstream artifact
    bit-reproducible across runs.
    """
    if not is_prime(p):
        raise ParameterError(f"characteristic {p} is not prime")
    if k < 1:
        raise ParameterError(f"extension degree must be >= 1, got {k}")
    modulus = fppoly.find_irreducible(p, k)
    return FieldContext(p, k, tuple(int(c) for c in modulus))


def trace(x: FieldElement) -> int:
    """Field trace down to F_p: sum of the k Frobenius conjugates."""
    tv = x.ctx.trace_vector()
    return sum(c * t for c, t in zip(x.coeffs, tv)) % x.ctx.p


def char_exponent(a: FieldElement, s: FieldElement) -> int:
    """Exponent e = Tr(a*s) of the additive character value exp(2*pi*i*e/p)."""
    if a.ctx != s.ctx:
        raise ParameterError("field context mismatch")
    return trace(a * s)


def mul_matrix(x: FieldElement) -> np.ndarray:
    """The k x k F_p matrix M of y -> x*y on digit vectors: digits(x*y) = M @ digits(y) mod p."""
    t = x.ctx.mul_tensor()
    return np.einsum("i,ijl->lj", np.array(x.coeffs, dtype=np.int64), t) % x.ctx.p


class FpSubspace:
    """An F_p-linear subspace of a field, given by an independent basis."""

    __slots__ = ("ctx", "basis", "_rref", "_pivots", "_points", "_index")

    def __init__(self, ctx: FieldContext, basis: Sequence[FieldElement]):
        self.ctx = ctx
        self.basis = tuple(basis)
        mat = np.array([b.coeffs for b in self.basis], dtype=np.int64).reshape(len(self.basis), ctx.k)
        self._rref, self._pivots = rref_mod_p(mat, ctx.p)
        if len(self._pivots) != len(self.basis):
            raise ParameterError("subspace basis is linearly dependent")
        self._points: tuple[FieldElement, ...] | None = None
        self._index: dict[tuple[int, ...], int] | None = None

    @classmethod
    def from_vectors(cls, ctx: FieldContext, vectors: Iterable[FieldElement]) -> "FpSubspace":
        """Span of arbitrary vectors, with a canonical echelonized basis."""
        mat = np.array([v.coeffs for v in vectors], dtype=np.int64)
        if mat.size == 0:
            return cls(ctx, [])
        rr, pivots = rref_mod_p(mat, ctx.p)
        basis = [ctx.element(row) for row in rr[: len(pivots)]]
        return cls(ctx, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.ctx.p**self.dim

    def points(self) -> tuple[FieldElement, ...]:
        """All points, enumerated in digit order over the basis (deterministic)."""
        if self._points is None:
            p, k = self.ctx.p, self.ctx.k
            if self.dim == 0:
                self._points = (self.ctx.zero(),)
            else:
                digits = np.zeros((self.size, self.dim), dtype=np.int64)
                idx = np.arange(self.size)
                for d in range(self.dim):
                    digits[:, d] = idx % p
                    idx //= p
                mat = np.array([b.coeffs for b in self.basis], dtype=np.int64)
                pts = (digits @ mat) % p
                self._points = tuple(FieldElement(self.ctx, tuple(int(c) for c in row)) for row in pts)
        return self._points

    def reduce(self, x: FieldElement) -> FieldElement:
        """Canonical representative of the coset x + (this subspace)."""
        v = row_reduce_against(np.array(x.coeffs, dtype=np.int64), self._rref, self._pivots, self.ctx.p)
        return FieldElement(self.ctx, tuple(int(c) for c in v))

    def __contains__(self, x: FieldElement) -> bool:
        return self.reduce(x).is_zero()

    def index_of(self, x: FieldElement) -> int:
        if self._index is None:
            self._index = {pt.coeffs: i for i, pt in enumerate(self.points())}
        return self._index[x.coeffs]

    def point_set(self) -> frozenset:
        return frozenset(self.points())

    def dual(self) -> "FpSubspace":
        """Trace-dual subspace {a : Tr(a*m) = 0 for all m in this subspace}."""
        return dual_subspace(self)

    def to_json(self) -> dict:
        return {"dim": self.dim, "basis": [b.to_json() for b in self.basis]}


def _gram_matrix(ctx: FieldContext) -> np.ndarray:
    # Gram matrix of the trace bilinear form on the power basis
    k = ctx.k
    gen_pows = [ctx.one()]
    for _ in range(2 * k - 2):
        gen_pows.append(gen_pows[-1] * ctx.gen())
    g = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            g[i, j] = trace(gen_pows[i + j])
    return g


def dual_subspace(space: FpSubspace) -> FpSubspace:
    """M^perp under the trace form; dim M + dim M^perp = k and (M^perp)^perp = M."""
    ctx = space.ctx
    gram = _gram_matrix(ctx)
    if space.dim == 0:
        constraints = np.zeros((0, ctx.k), dtype=np.int64)
    else:
        basis_mat = np.array([b.coeffs for b in space.basis], dtype=np.int64)
        constraints = (basis_mat @ gram) % ctx.p
    null = nullspace_mod_p(constraints, ctx.p)
    return FpSubspace.from_vectors(ctx, [ctx.element(row) for row in null])


def span_of(ctx: FieldContext, elements: Iterable[FieldElement]) -> FpSubspace:
    """F_p-span of an arbitrary point set (used for duals of non-subspace sets)."""
    return FpSubspace.from_vectors(ctx, list(elements))


def linear_map_matrix(ctx: FieldContext, func: Callable[[FieldElement], FieldElement]) -> np.ndarray:
    """Matrix (columns = images of the power basis) of an F_p-linear map."""
    k = ctx.k
    cols = []
    x = ctx.one()
    for _ in range(k):
        cols.append(func(x).coeffs)
        x = x * ctx.gen()
    return np.array(cols, dtype=np.int64).T


def kernel_subspace(ctx: FieldContext, func: Callable[[FieldElement], FieldElement]) -> FpSubspace:
    """Kernel of an F_p-linear map on the field, as a subspace."""
    mat = linear_map_matrix(ctx, func)
    null = nullspace_mod_p(mat, ctx.p)
    return FpSubspace.from_vectors(ctx, [ctx.element(row) for row in null])


def _embedding_powers(sub: FieldContext, ambient: FieldContext) -> tuple[FieldElement, ...]:
    key = (sub.p, sub.k, sub.modulus)
    cached = ambient._embed_cache.get(key)
    if cached is not None:
        return cached
    # smallest root of the subfield modulus, in ambient enumeration order
    mod_consts = [ambient.element([c]) for c in sub.modulus]
    root = None
    for cand in ambient.elements():
        acc = ambient.zero()
        for c in reversed(mod_consts):
            acc = acc * cand + c
        if acc.is_zero():
            root = cand
            break
    if root is None:
        raise InternalError("subfield modulus has no root in the ambient field")
    powers = [ambient.one()]
    for _ in range(sub.k - 1):
        powers.append(powers[-1] * root)
    ambient._embed_cache[key] = tuple(powers)
    return ambient._embed_cache[key]


def embed(x: FieldElement, ambient: FieldContext) -> FieldElement:
    """Deterministic ring embedding of x's field into the ambient field.

    The subfield's modulus root is sent to its first root in ambient
    enumeration order; any root gives an isomorphic image, this one makes
    runs reproducible.
    """
    sub = x.ctx
    if sub == ambient:
        return x
    if sub.p != ambient.p:
        raise ParameterError("embedding requires equal characteristic")
    if ambient.k % sub.k != 0:
        raise ParameterError(f"subfield degree {sub.k} does not divide ambient degree {ambient.k}")
    powers = _embedding_powers(sub, ambient)
    acc = ambient.zero()
    for c, w in zip(x.coeffs, powers):
        if c:
            acc = acc + ambient.element([c]) * w
    return acc


def multiplicative_order(x: FieldElement) -> int:
    if x.is_zero():
        raise ParameterError("zero has no multiplicative order")
    n = x.ctx.order - 1
    order = n
    for q in prime_factors(n):
        while order % q == 0 and (x ** (order // q)) == x.ctx.one():
            order //= q
    return order


def primitive_element(ctx: FieldContext) -> FieldElement:
    """First generator of the multiplicative group in enumeration order."""
    n = ctx.order - 1
    factors = prime_factors(n)
    for v in range(1, ctx.order):
        x = ctx.from_int(v)
        if all((x ** (n // q)) != ctx.one() for q in factors):
            return x
    raise ConfigurationError("no primitive element found")  # pragma: no cover
