"""Base-u expansion of batches of polynomials over F_p, the one polynomial division in src.

expansion_degrees expands whole batches of polynomials, whose coefficients
may be field elements written as F_p digit vectors.  Every other
polynomial job works on digit arrays elsewhere: the modulus search and the
Frobenius matrix in gf, the roots and the splitting degree of a
linearized polynomial in groupgeom.
"""

from __future__ import annotations

import numpy as np

from orbitcodes.errors import ParameterError


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
