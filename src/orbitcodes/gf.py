"""Exact arithmetic in prime fields and their extensions.

An element of F_{p^k} is a length-k digit vector over F_p, little-endian
in the root of the defining modulus.  All arithmetic is exact.  Elements
are (..., k) int64 digit arrays, and this module is the one home of their
products: mul_rows, pow_rows, power_table and product_matrices, the
matrices R with digits(y*x) = digits(y) @ R, all built on mul_tensor,
and power_sums, the codewords sum_t c_t * beta^t.  The tensor's powers
X^t mod the modulus are digit 0 of their expansion in base modulus,
fppoly.digit_chunks, the one polynomial division.  F_p-linear maps of
the field are k x k matrices on digit vectors: the trace form, the
Frobenius matrix, and the kernels and trace-dual subspaces they cut
out.  A subspace (FpSubspace) is the RREF of its spanning rows, a
(dim, k) basis array from one elimination.  Every F_p product is one
linalg.matmul_mod_p, but at p = 2 and k <= 64 those of a large mul_rows
batch and of power_sums: there an element is one word of k bits
(linalg.pack_bits), x times X^i is shift-and-reduce (_shift_words), a
product is the XOR of those words at the other factor's set bits
(_word_products), and power_sums' sum is one linalg.xor_rows.  The
modulus search (build_field) and its irreducibility test run on the
same digit arrays, in the candidate's own quotient ring
F_p[X]/(modulus).  FieldElement, the scalar element, is only the tests'
oracle.

Contexts and elements are immutable after construction and safe to
share; a context caches one read-only table of words on first use.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from orbitcodes.errors import ConfigurationError, ParameterError
from orbitcodes.fppoly import digit_chunks
from orbitcodes.linalg import matmul_mod_p, nullspace_mod_p, odd_terms, pack_bits, rank_mod_p, rref_mod_p, unpack_bits, word_width, xor_rows
from orbitcodes.numutil import is_prime, prime_factors

WORD_PRODUCTS = 64  # at p = 2 and k <= 64, mul_rows multiplies on words from this many products of one batch up


class FieldContext:
    """The field F_{p^k} presented as F_p[X]/(modulus).

    modulus is a monic irreducible polynomial of degree k over F_p, stored
    little-endian as a tuple of k+1 ints.  Use build_field() rather than
    calling this constructor directly; build_field picks the modulus
    deterministically.
    """

    __slots__ = ("p", "k", "modulus", "_mul_tensor", "_overflow")

    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise ParameterError(f"characteristic {p} is not prime")
        if k < 1:
            raise ParameterError(f"extension degree must be >= 1, got {k}")
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ParameterError("modulus must be monic of degree k")
        self.p = p
        self.k = k
        self.modulus = mod
        if k > 1 and any(sum(c * pow(a, i, p) for i, c in enumerate(mod)) % p == 0 for a in range(p)):
            raise ParameterError("modulus is not irreducible")  # it has a root in F_p; no table is built
        # digits of X^t mod the modulus, t < 2k - 1: digit 0 of its base-modulus expansion (a copy, as the buffer is reused)
        powers = np.concatenate([block[:, :k].astype(np.int64) for _, block in digit_chunks(mod, 2 * k - 1, p)])
        self._mul_tensor = powers[np.add.outer(np.arange(k), np.arange(k))]
        self._mul_tensor.flags.writeable = False
        self._overflow: np.ndarray | None = None  # the words h * X^k of _shift_words, at p = 2
        if not _is_irreducible(self):
            raise ParameterError("modulus is not irreducible")

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

    def digit_rows(self, elements: Sequence["FieldElement"]) -> np.ndarray:
        """(len(elements), k) digit array of a sequence of elements."""
        return np.array([x.coeffs for x in elements], dtype=np.int64).reshape(len(elements), self.k)

    def elements_of(self, digits: np.ndarray) -> tuple["FieldElement", ...]:
        """The elements of the rows of an (n, k) digit array, for scalar arithmetic."""
        return tuple(FieldElement(self, tuple(row)) for row in (np.asarray(digits) % self.p).tolist())

    # -- arithmetic cores -----------------------------------------------

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
                row = self._mul_tensor[k - 1, i - k + 1].tolist()  # X^i mod the modulus
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
        """Read-only (k, k, k) tensor T with T[i, j] = digits of X^(i+j) mod the modulus.

        For digit vectors a, b the product a*b has digits
        sum_{i,j} a_i b_j T[i, j] (mod p); every batched product uses it.
        """
        return self._mul_tensor

    def trace_vector(self) -> np.ndarray:
        """Traces of the power basis 1, X, ..., X^(k-1); trace is F_p-linear.

        Tr(x) is the matrix trace of y -> x*y, so the trace of X^i is the
        diagonal sum of its multiplication matrix, sum_j T[i, j, j].
        """
        return np.trace(self.mul_tensor(), axis1=1, axis2=2) % self.p


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
    for v in range(p**k):
        try:
            return FieldContext(p, k, tuple(base_p_digits(np.array([v]), p, k)[0].tolist()) + (1,))
        except ParameterError:  # the candidate X^k + (digits of v) is reducible
            continue
    raise ParameterError(f"no irreducible polynomial of degree {k} over F_{p}")  # pragma: no cover


def _is_irreducible(ring: FieldContext) -> bool:
    """Rabin's irreducibility test for the modulus f, of degree k, of ring = F_p[X]/(f).

    The test runs on ring's own arithmetic, which is a field's only when f
    passes.  f is irreducible iff k Frobenius steps return X to itself
    and, for every prime q | k, X^(p^(k/q)) - X is a unit of the ring,
    that is its product matrix has full rank (von zur Gathen & Gerhard,
    Modern Computer Algebra, 14.9).  FieldContext has already rejected a
    modulus of degree k > 1 with a root in F_p.

    Only those conjugates are computed, by doubling: with F the Frobenius
    matrix, X^(p^e) has digits F^e @ digits(X), and every exponent e
    shares one chain of squarings F^(2^bit), each applied once to the
    conjugates whose exponent has that bit, so the test makes about
    2*log2(k) products instead of k.
    """
    p, k = ring.p, ring.k
    if k == 1:
        return True
    x = np.eye(k, 1, -1, dtype=np.int64)  # the digits of X, as a column
    exponents = [k] + [k // q for q in prime_factors(k)]
    conjugates = np.repeat(x, len(exponents), axis=1)  # column i ends as the digits of X^(p^exponents[i])
    square = frobenius_matrix(ring)  # F^(2^bit)
    for bit in range(k.bit_length()):
        if bit:
            square = matmul_mod_p(square, square, p)
        take = [i for i, e in enumerate(exponents) if e >> bit & 1]
        if take:
            conjugates[:, take] = matmul_mod_p(square, conjugates[:, take], p)
    if not np.array_equal(conjugates[:, 0], x[:, 0]):
        return False
    unit = np.eye(1, k, dtype=np.int64)[0]  # a product is a unit iff every factor is
    for conjugate in conjugates[:, 1:].T:
        unit = mul_rows(ring, unit, conjugate - x[:, 0])
    return rank_mod_p(product_matrices(ring, unit), p) == k


def product_matrices(ctx: FieldContext, x: np.ndarray) -> np.ndarray:
    """(..., k, k) matrices R of y -> y*x, digits(y*x) = digits(y) @ R mod p, for the rows x of an (..., k) digit array.

    Row i of R is the digits of x times X^i, so all of them are one F_p
    product (linalg.matmul_mod_p) of x with mul_tensor.
    """
    k = ctx.k
    x = np.asarray(x)
    return matmul_mod_p(x.reshape(-1, k), ctx.mul_tensor().reshape(k, k * k), ctx.p).reshape(x.shape[:-1] + (k, k))


def mul_rows(ctx: FieldContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products, as int64 digits, of two broadcastable (..., k) digit arrays of any integer type.

    At p = 2 with k <= 64, a batch of at least WORD_PRODUCTS products runs
    on words of k bits (linalg.pack_bits, in the smallest word that holds
    them): each operand is packed once, the k words x * X^i of the smaller
    one come by shift-and-reduce (_shift_words), and a product is their XOR
    at the set bits of the other operand (_word_products), unpacked once.
    Otherwise the digits' outer products mod p times mul_tensor are one
    linalg.matmul_mod_p.
    """
    k, p = ctx.k, ctx.p
    a, b = np.asarray(a), np.asarray(b)
    if p == 2 and k <= 64 and np.broadcast(a, b).size >= WORD_PRODUCTS * k:
        shape = np.broadcast_shapes(a.shape, b.shape)
        x, y = (pack_bits(v.reshape((1,) * (len(shape) - v.ndim) + v.shape), word_width(k))[..., 0] for v in (a, b))
        if x.size > y.size:
            x, y = y, x
        shifted = _shift_words(ctx, x, np.empty((k,) + x.shape, dtype=x.dtype))
        products = _word_products(shifted, y, np.empty((k,) + shape[:-1], dtype=x.dtype))
        return unpack_bits(products[..., None], k).astype(np.int64)
    outer = (a.astype(np.int64, copy=False) % p)[..., :, None] * (b.astype(np.int64, copy=False) % p)[..., None, :]
    if p > 2:  # a product of two digits is a digit only at p = 2
        outer %= p
    return matmul_mod_p(outer.reshape(-1, k * k), ctx.mul_tensor().reshape(k * k, k), p).reshape(outer.shape[:-2] + (k,))


def pow_rows(ctx: FieldContext, rows: np.ndarray, e: int | np.ndarray) -> np.ndarray:
    """x^e for every row x of an (..., k) digit array and exponent e >= 0, or an array of exponents.

    Exponents broadcast against the rows' leading shape, as in np.power.
    Square-and-multiply from the low bit, through mul_rows, so that all
    exponents share one chain of squarings of the rows.  An exponent's
    lowest set bit takes its square as it is, with no product by 1.
    """
    e = np.asarray(e, dtype=np.int64)
    if (e < 0).any():
        raise ParameterError(f"exponent must be >= 0, got {e.min()}")
    rows = np.asarray(rows, dtype=np.int64) % ctx.p
    started = e & 1 == 1  # some bit of e at or below the current one is set
    out = np.where(started[..., None], rows, np.eye(1, ctx.k, dtype=np.int64)[0])  # x^(e mod 2)
    for bit in range(1, int(e.max(initial=0)).bit_length()):
        rows = mul_rows(ctx, rows, rows)  # x^(2^bit)
        odd = (e >> bit) & 1 == 1
        product, first = odd & started, odd & ~started
        if product.any():
            out = np.where(product[..., None], mul_rows(ctx, out, rows), out)
        if first.any():
            out = np.where(first[..., None], rows, out)
            started = started | first
    return out


def power_table(ctx: FieldContext, points: np.ndarray, D: int) -> np.ndarray:
    """Digits (n, D, k) of beta^t for every point beta (a row of an (n, k) array of points) and t < D.

    The table is built by doubling: powers 0..m-1 times beta^m are powers
    m..2m-1, so each step is one stacked F_p product of every point's
    powers so far with its product matrix of beta^m (product_matrices),
    and D powers take about log2(D) steps.  Its entries are digits,
    stored in the narrowest integer type that holds p - 1.
    """
    p, k = ctx.p, ctx.k
    table = np.zeros((len(points), D, k), dtype=np.min_scalar_type(p - 1))
    if D:
        table[:, 0, 0] = 1
    step = np.asarray(points) % p  # beta^m
    m = 1
    while m < D:
        new = min(m, D - m)
        mats = product_matrices(ctx, step)
        table[:, m : m + new] = matmul_mod_p(table[:, :new], mats, p)
        m += new
        if m < D:
            step = matmul_mod_p(step[:, None, :], mats, p)[:, 0]  # beta^(2m)
    return table


def power_sums(ctx: FieldContext, coeffs: np.ndarray, points: np.ndarray, chunk: int) -> np.ndarray:
    """Digits (rows, n, k) of sum_t coeffs[b, t] * beta^t for every row b of coeffs and every point beta (a row of points).

    coeffs is a (rows, D) array of F_p integers in (-p, p), and points an
    (n, k) digit array, taken chunk points at a time.  At p = 2 with
    k <= 64 a field element is one word of k bits (linalg.pack_bits, in
    the smallest word that holds them): the powers of a chunk are a
    (D, chunk) table of words (_power_words), each row's sum of them is
    one linalg.xor_rows, over the odd terms of coeffs (linalg.odd_terms),
    found once for all chunks, and the sums are unpacked once per chunk.
    Otherwise the powers' digits (power_table), as a (D, chunk*k) table,
    times coeffs are one linalg.matmul_mod_p per chunk.  The digits are
    stored in the narrowest integer type that holds p - 1.
    """
    p, k = ctx.p, ctx.k
    rows, D = np.shape(coeffs)
    n = len(points)
    out = np.zeros((rows, n, k), dtype=np.min_scalar_type(p - 1))
    on_words = p == 2 and k <= 64
    if on_words:
        terms = odd_terms(coeffs)
    for lo in range(0, n, chunk):
        part = points[lo : lo + chunk]
        if on_words:
            table = _power_words(ctx, part, D)
            sums = np.zeros((rows, len(part)), dtype=table.dtype)
            xor_rows(sums, terms, table)
            out[:, lo : lo + chunk] = unpack_bits(sums[..., None], k)
        else:
            table = power_table(ctx, part, D).transpose(1, 0, 2).reshape(D, len(part) * k)
            out[:, lo : lo + chunk] = matmul_mod_p(coeffs, table, p).reshape(rows, len(part), k)
    return out


def _power_words(ctx: FieldContext, points: np.ndarray, D: int) -> np.ndarray:
    """Words (D, n) of beta^t for every point beta (a row of an (n, k) array of points) and t < D, at p = 2 and k <= 64.

    Doubling, as in power_table, with the product on words: the k words
    beta^m * X^i (_shift_words) times an operand are their XOR at its set
    bits (_word_products), so one product of powers 0..m-1 and of beta^m
    gives powers m..2m-1 and beta^2m.
    """
    k, n = ctx.k, len(points)
    step = pack_bits(points, word_width(k))[:, 0]  # beta^m
    table = np.zeros((D, n), dtype=step.dtype)
    if D:
        table[0] = 1
    shifted = np.empty((k, 1, n), dtype=step.dtype)  # beta^m * X^i
    terms = np.empty((k, D // 2 + 1, n), dtype=step.dtype)  # bit i of an operand times beta^m * X^i
    m = 1
    while m < D:
        new = min(m, D - m)
        _shift_words(ctx, step, shifted)
        table[m] = step
        operands = table[: new + 1] if 2 * m < D else table[:new]  # powers 0..new-1, and beta^m while beta^2m is needed
        product = _word_products(shifted, operands, terms[:, : len(operands)])
        table[m : m + new] = product[:new]
        step = product[-1]
        m += new
    return table


def _shift_words(ctx: FieldContext, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = x * X^i for i < k, on words x of k bits (p = 2, k <= 64), into a (k, ...) buffer of their type that x broadcasts to.

    Shift-and-reduce, up to 8 bits a step: the s bits shifted past
    X^(k-1) are an h < 2^s, which comes back as h * X^k, read from a table
    of them, built once per context on first use.
    """
    k = ctx.k
    reach = max(1, min(8, k - 1))  # the most bits one step shifts
    word = out.dtype.type
    if ctx._overflow is None:  # overflow[h] = h * X^k mod the modulus, for h < 2^reach
        modulus = sum(c << i for i, c in enumerate(ctx.modulus))
        overflow = np.zeros(1, dtype=out.dtype)
        power = modulus ^ 1 << k  # X^(k+b) mod the modulus, from b = 0
        for _ in range(reach):
            overflow = np.concatenate([overflow, overflow ^ word(power)])
            power = power << 1 ^ (modulus if power >> (k - 1) & 1 else 0)
        overflow.flags.writeable = False
        ctx._overflow = overflow
    shift = np.arange(1, reach + 1, dtype=out.dtype).reshape((reach,) + (1,) * (out.ndim - 1))
    low = word((1 << k) - 1)
    out[0] = x
    for i in range(0, k - 1, reach):
        block = out[i + 1 : i + 1 + reach]
        s = shift[: len(block)]
        np.left_shift(out[i], s, out=block)
        block &= low
        block ^= ctx._overflow[out[i] >> (k - s)]
    return out


def _word_products(shifted: np.ndarray, words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Products words * x, where shifted[i] = x * X^i: the XOR over i of shifted[i] at bit i of words, with out a (k, ...) buffer both broadcast to."""
    k = len(shifted)
    np.right_shift(words, np.arange(k, dtype=out.dtype).reshape((k,) + (1,) * (out.ndim - 1)), out=out)
    out &= 1
    out *= shifted
    return np.bitwise_xor.reduce(out, axis=0)


class FpSubspace:
    """The F_p-linear span of the rows of a digit array, held as their RREF.

    basis is the read-only (dim, k) reduced row echelon form of the
    spanning rows, from one linalg.rref_mod_p, so every subspace has one
    canonical basis whatever rows span it.  Point i is sum_j c_j * basis[j]
    for the little-endian base-p digits c of i (digit order).  A point's
    digits c are its entries at the pivot columns, where the basis is the
    identity, so index_of and reduce work on whole digit arrays at once.
    """

    __slots__ = ("ctx", "basis", "_pivots", "_points")

    def __init__(self, ctx: FieldContext, vectors: np.ndarray):
        self.ctx = ctx
        self.basis, self._pivots = rref_mod_p(np.asarray(vectors, dtype=np.int64).reshape(-1, ctx.k), ctx.p)
        self.basis.flags.writeable = False
        self._points: np.ndarray | None = None

    @classmethod
    def kernel(cls, ctx: FieldContext, mat: np.ndarray) -> "FpSubspace":
        """The subspace {x : mat @ digits(x) = 0 mod p} of an F_p matrix with k columns."""
        return cls(ctx, nullspace_mod_p(mat, ctx.p))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.ctx.p**self.dim

    def points(self) -> np.ndarray:
        """Read-only (size, k) digit array of all points, in digit order over the basis."""
        if self._points is None:
            digits = base_p_digits(np.arange(self.size), self.ctx.p, self.dim)
            self._points = matmul_mod_p(digits, self.basis, self.ctx.p)
            self._points.flags.writeable = False
        return self._points

    def nonzero_coset_reps(self, chunk_rows: int) -> Iterator[np.ndarray]:
        """Digit rows of one point in every nonzero coset, at most chunk_rows at a time.

        The points are the nonzero F_p-combinations of the unit vectors on
        the non-pivot columns of the RREF basis.  Those span a complement of
        the subspace, so each of the ctx.order // size - 1 nonzero cosets is
        hit exactly once; no full-field table is built.
        """
        p, k = self.ctx.p, self.ctx.k
        free = [c for c in range(k) if c not in self._pivots]
        count = p ** len(free)
        for start in range(1, count, chunk_rows):
            rows = np.zeros((min(chunk_rows, count - start), k), dtype=np.int64)
            rows[:, free] = base_p_digits(np.arange(start, start + len(rows)), p, len(free))
            yield rows

    def reduce(self, digits: np.ndarray) -> np.ndarray:
        """Canonical representative of the coset x + (this subspace), for every row x of an (..., k) digit array.

        It is x minus its pivot coordinates times the RREF basis: RREF rows
        vanish on each other's pivots, so the representative is zero at every
        pivot column.
        """
        p = self.ctx.p
        x = np.asarray(digits, dtype=np.int64).reshape(-1, self.ctx.k) % p
        return ((x - matmul_mod_p(x[:, self._pivots], self.basis, p)) % p).reshape(np.shape(digits))

    def index_of(self, digits: np.ndarray) -> np.ndarray:
        """Digit-order index of every row of an (..., k) digit array; -1 for a row outside the subspace."""
        p = self.ctx.p
        x = np.asarray(digits, dtype=np.int64).reshape(-1, self.ctx.k) % p
        coords = x[:, self._pivots]  # x = coords @ basis when x lies in the subspace, and coords are its digits
        inside = (matmul_mod_p(coords, self.basis, p) == x).all(axis=1)
        return np.where(inside, digit_codes(coords, p), -1).reshape(np.shape(digits)[:-1])

    def dual(self) -> "FpSubspace":
        """Trace dual M^perp = {a : Tr(a*m) = 0 for all m in M} of this subspace M.

        dim M + dim M^perp = k and (M^perp)^perp = M.
        """
        return FpSubspace.kernel(self.ctx, matmul_mod_p(self.basis, trace_form(self.ctx), self.ctx.p))

    def to_json(self) -> dict:
        return {"dim": self.dim, "basis": self.basis.tolist()}


def base_p_digits(idx: np.ndarray, p: int, width: int) -> np.ndarray:
    """Little-endian base-p digits of each index, one row per index.

    Repeated division, so no power of p is formed: at any width, the digits
    above an index's top digit are 0.
    """
    out = np.zeros((len(idx), width), dtype=np.int64)
    rest = np.array(idx, dtype=np.int64)
    for t in range(width):
        if not rest.any():
            break
        rest, out[:, t] = np.divmod(rest, p)
    return out


def digit_codes(digits: np.ndarray, p: int) -> np.ndarray:
    """Integer code (digit value) of every row of an (..., width) digit array; inverse of base_p_digits.

    Codes are int64, so p^width must stay below 2^63; a wider array is
    refused rather than wrapped.
    """
    width = digits.shape[-1]
    if p**width > np.iinfo(np.int64).max:
        raise ParameterError(f"codes of {width} base-{p} digits overflow int64")
    return digits @ p ** np.arange(width, dtype=np.int64)


def trace_form(ctx: FieldContext) -> np.ndarray:
    """Gram matrix W of the trace form on digit vectors: Tr(x*y) = digits(x) @ W @ digits(y) mod p.

    Row c @ W is the functional a -> Tr(c*a), so a batch of trace
    functionals is one product with W.
    """
    k = ctx.k
    return matmul_mod_p(ctx.mul_tensor().reshape(k * k, k), ctx.trace_vector()[:, None], ctx.p).reshape(k, k)


def frobenius_matrix(ctx: FieldContext) -> np.ndarray:
    """The k x k F_p matrix F of x -> x^p on digit vectors: column j is the digits of X^(jp).

    Frobenius is F_p-linear, so x^(p^i) has digits F^i @ digits(x), and a
    linearized polynomial sum_i c_i X^(p^i) with F_p coefficients acts as
    sum_i c_i F^i.
    """
    return pow_rows(ctx, np.eye(ctx.k, dtype=np.int64), ctx.p).T  # row j of the identity: digits of X^j


def primitive_element(ctx: FieldContext) -> np.ndarray:
    """(k,) digit row of the first generator of the multiplicative group in digit-code order.

    x generates it iff x^(n/q) != 1 for every prime q | n = |F| - 1.  The
    codes are tested in batches of 4, 8, 16, ... from code p, every prime
    in one pow_rows call: for k > 1 the codes below p are F_p^*, whose
    orders divide p - 1 < n.
    """
    n = ctx.order - 1
    one = np.eye(1, ctx.k, dtype=np.int64)[0]
    exponents = np.array([n // q for q in prime_factors(n)], dtype=np.int64)[:, None]
    lo, size = (ctx.p if ctx.k > 1 else 1), 4
    while lo < ctx.order:
        cands = base_p_digits(np.arange(lo, min(lo + size, ctx.order)), ctx.p, ctx.k)
        ok = (pow_rows(ctx, cands, exponents) != one).any(axis=2).all(axis=0)  # one row of powers per prime
        if ok.any():
            return cands[np.argmax(ok)]
        lo, size = lo + size, 2 * size
    raise ConfigurationError("no primitive element found")  # pragma: no cover
