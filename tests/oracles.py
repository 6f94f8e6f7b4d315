"""Slow reference implementations that the fast kernels are tested against.

* ``scalar_vertex_degrees``: every vertex's restriction interpolated on
  its own with scalar field arithmetic (``lagrange_interpolate``).
* ``dfs_min_weight``: minimum codeword weight by depth-first recursion
  over the basis rows, one scalar multiple at a time, with the scalar
  tables built from scalar ``FieldElement`` products.
"""

from __future__ import annotations

import numpy as np

from orbitcodes.codecore import _vertex_edge_lists, encode_basis_digits
from orbitcodes.polyring import MINUS_INFINITY, lagrange_interpolate


def scalar_vertex_degrees(cw, graph, omega) -> list[tuple[str, int, int | None]]:
    """(side, index, interpolant degree or None) for every vertex, left side first."""
    left, right = _vertex_edge_lists(graph)
    out = []
    for side, groups in (("left", left), ("right", right)):
        for vi, edge_ids in enumerate(groups):
            interp = lagrange_interpolate([omega[e] for e in edge_ids], [cw.values[e] for e in edge_ids])
            d = interp.degree
            out.append((side, vi, None if d == MINUS_INFINITY else int(d)))
    return out


def _scalar_mult_matrix(c, basis) -> np.ndarray:
    return np.array([(c * b).coeffs for b in basis], dtype=np.int64).T


def scalar_tables(ms, omega, prime_only: bool) -> list[np.ndarray]:
    """Digits (scalars, n, k) of every scalar multiple of every basis codeword."""
    ctx = ms.ctx
    p, k = ctx.p, ctx.k
    rows = encode_basis_digits(ms, omega)
    scalars = [ctx.from_int(c) for c in range(p)] if prime_only else list(ctx.element_list())
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
