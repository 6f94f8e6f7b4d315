"""Dense polynomial arithmetic over a prime field F_p.

Polynomials are little-endian numpy int64 coefficient arrays with the
trailing zeros stripped (the zero polynomial is the empty array).  They
serve modulus searches, splitting degrees and the Frobenius matrix.
expansion_degrees expands whole batches of polynomials, whose coefficients
may be field elements written as F_p digit vectors.

Degrees use the convention deg(0) = -1.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve

from orbitcodes.errors import ParameterError
from orbitcodes.numutil import lcm, prime_factors

_FFT_THRESHOLD = 600


def make(coeffs, p: int) -> np.ndarray:
    a = np.asarray(list(coeffs), dtype=np.int64) % p
    return trim(a)


def trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if nz.size == 0:
        return a[:0]
    return a[: int(nz[-1]) + 1]


def deg(a: np.ndarray) -> int:
    return len(a) - 1


def is_zero(a: np.ndarray) -> bool:
    return len(a) == 0


def add(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] = (out[: len(b)] + b) % p
    return trim(out)


def sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] -= b
    return trim(out % p)


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if is_zero(a) or is_zero(b):
        return a[:0]
    if min(len(a), len(b)) > _FFT_THRESHOLD:
        # exact: coefficients bounded by (p-1)^2 * len << 2^53
        c = np.rint(fftconvolve(a.astype(np.float64), b.astype(np.float64))).astype(np.int64)
    else:
        c = np.convolve(a, b)
    return trim(c % p)


def divmod_(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean division a = q*b + r with deg r < deg b.

    Works on Python lists internally; the divisor's nonzero terms are
    iterated sparsely, which makes division by few-term polynomials
    (subspace annihilators, power monomials) cheap even at high degree.
    """
    if is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    db = deg(b)
    if deg(a) < db:
        return a[:0], a.copy()
    lc_inv = pow(int(b[db]), p - 2, p)
    terms = [(int(j), int(b[j])) for j in np.nonzero(b)[0]]
    coeffs = [int(c) for c in a]
    q = [0] * (len(a) - db)
    for i in range(len(coeffs) - 1, db - 1, -1):
        c = coeffs[i]
        if c:
            qc = (c * lc_inv) % p
            q[i - db] = qc
            base = i - db
            for j, bc in terms:
                coeffs[base + j] = (coeffs[base + j] - qc * bc) % p
    return trim(np.array(q, dtype=np.int64)), trim(np.array(coeffs[:db], dtype=np.int64))


def mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return divmod_(a, b, p)[1]


def monic(a: np.ndarray, p: int) -> np.ndarray:
    if is_zero(a):
        return a
    inv = pow(int(a[-1]), p - 2, p)
    return (a * inv) % p


def gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    while not is_zero(b):
        a, b = b, mod(a, b, p)
    return monic(a, p)


def mul_mod(a: np.ndarray, b: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    return mod(mul(a, b, p), m, p)


def pow_mod(base: np.ndarray, e: int, m: np.ndarray, p: int) -> np.ndarray:
    result = make([1], p)
    base = mod(base, m, p)
    while e:
        if e & 1:
            result = mul_mod(result, base, m, p)
        base = mul_mod(base, base, m, p)
        e >>= 1
    return result


def x_poly(p: int) -> np.ndarray:
    return make([0, 1], p)


def is_irreducible(f: np.ndarray, p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over F_p."""
    n = deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    x = x_poly(p)
    # x^(p^n) == x mod f
    if not np.array_equal(pow_mod(x, p**n, f, p), mod(x, f, p)):
        return False
    for q in prime_factors(n):
        h = sub(pow_mod(x, p ** (n // q), f, p), x, p)
        if deg(gcd(f, h, p)) != 0:
            return False
    return True


def find_irreducible(p: int, k: int) -> np.ndarray:
    """First monic irreducible of degree k over F_p in digit-value order.

    Candidates X^k + c are ordered by the base-p value of the low
    coefficient vector c, so the result is reproducible across runs.
    """
    if k == 1:
        return make([0, 1], p)
    for v in range(p**k):
        coeffs = [0] * (k + 1)
        t = v
        for i in range(k):
            coeffs[i] = t % p
            t //= p
        coeffs[k] = 1
        f = np.array(coeffs, dtype=np.int64)
        if is_irreducible(f, p):
            return f
    raise ParameterError(f"no irreducible polynomial of degree {k} over F_{p}")  # pragma: no cover


def splitting_degree(f: np.ndarray, p: int) -> int:
    """Degree of the splitting field of a squarefree f over F_p.

    Computed as the lcm of the irreducible-factor degrees via
    distinct-degree factorization.
    """
    work = monic(f, p)
    x = x_poly(p)
    out = 1
    h = x.copy()
    d = 0
    while deg(work) > 0:
        d += 1
        if 2 * d > deg(work):
            out = lcm(out, deg(work))
            break
        h = pow_mod(h, p, work, p)
        factor = gcd(work, sub(h, x, p), p)
        if deg(factor) > 0:
            out = lcm(out, d)
            work = divmod_(work, factor, p)[0]
            h = mod(h, work, p)
    return out


def expansion_degrees(rows: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """Largest digit degree of every row's expansion in base u; -1 for a zero row.

    rows is an (R, L, c) array: row r is sum_t rows[r, t] X^t, with each
    coefficient written as c F_p digits.  u is the monic divisor as
    (deg u + 1, c, c) matrices: u[e] multiplies by the coefficient of X^e,
    restricted to the c digits in use.

    All rows are expanded at once by iterated synthetic division (von zur
    Gathen & Gerhard, Modern Computer Algebra, 9.2): dividing the quotient
    stored from column `start` on leaves the next digit in its low deg u
    columns and the new quotient above, so a row's largest digit degree is
    its largest t mod deg u over nonzero columns t.  Quotient column i only
    updates columns at or below i - step, step = deg u minus u's largest
    lower exponent, so step columns go in one vector operation.
    """
    degree = u.shape[0] - 1
    if degree < 1:
        raise ParameterError("expansion base must be nonconstant")
    if not np.array_equal(u[-1], np.eye(u.shape[1], dtype=u.dtype)):
        raise ParameterError("expansion base must be monic")
    lower = [(e, u[e].T) for e in range(degree) if u[e].any()]
    step = degree - max((e for e, _ in lower), default=0)
    work = np.moveaxis(np.asarray(rows, dtype=np.int64), 1, 0).copy()  # (L, R, c): columns are slabs
    length = work.shape[0]
    for start in range(0, length - degree, degree) if lower else ():
        for top in range(length, start + degree, -step):
            low = max(start + degree, top - step)
            quotient = work[low:top]
            quotient %= p  # targets are reduced only when read, which keeps entries small
            for e, mt in lower:
                target = work[low - degree + e : top - degree + e]
                target -= quotient @ mt
    offsets = np.arange(length) % degree
    return np.where((work % p).any(axis=2), offsets[:, None], -1).max(axis=0, initial=-1)
