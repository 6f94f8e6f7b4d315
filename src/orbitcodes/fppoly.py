"""Base-u expansion of batches of F_p polynomials, the one polynomial division in src.

expansion_degrees expands whole batches of polynomials with F_p
coefficients in a base with F_p coefficients.  Every other polynomial job
works on digit arrays elsewhere: the modulus search and the Frobenius
matrix in gf, the roots and the splitting degree of a linearized
polynomial in groupgeom.
"""

from __future__ import annotations

import numpy as np

from orbitcodes.errors import ParameterError


def expansion_degrees(rows: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """Largest digit degree of every row's expansion in base u; -1 for a zero row.

    rows is an (R, L) array of F_p coefficients: row r is sum_t rows[r, t]
    X^t.  u is the monic divisor's F_p coefficients, lowest degree first.

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
