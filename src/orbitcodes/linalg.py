"""Exact linear algebra over prime fields, on numpy integer matrices.

Matrices are 2-d int64 arrays with entries reduced mod p.  Everything here
is plain Gaussian elimination; the primes involved are tiny, so scalar
inverses come from Fermat's little theorem.
"""

from __future__ import annotations

import numpy as np


def _as_matrix(mat, p: int) -> np.ndarray:
    a = np.array(mat, dtype=np.int64, copy=True)
    if a.ndim != 2:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return a % p


def rref_mod_p(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = _as_matrix(mat, p)
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


def rank_mod_p(mat, p: int) -> int:
    return len(rref_mod_p(mat, p)[1])


def nullspace_mod_p(mat, p: int) -> np.ndarray:
    """Basis (as rows) of {x : mat @ x = 0 mod p}.

    Basis row i is 1 at the i-th free column and, at each pivot column,
    minus that pivot row's RREF entry in the free column.
    """
    a = _as_matrix(mat, p)
    cols = a.shape[1]
    rr, pivots = rref_mod_p(a, p)
    free = np.delete(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rr[:, free].T % p
    return basis
