"""The bipartite coset graph and its spectral analysis.

Left vertices are the right cosets of the translation subgroup G in A,
right vertices the right cosets of the scaling subgroup H (identified with
the elements of the translation space S), and the edges are the elements
of A itself; a CosetGraph checks that it is biregular and sorts its edges
by vertex once, for all readers (incidence).  The second singular value
of the degree-normalized bi-adjacency operator is computed two ways:

* exactly, by counting over additive characters: for each a outside the
  trace-dual of S, read with H from A, the two-step walk eigenvalue is
  lambda_a = |{h in H : h^-1 * a in G^perp}| / |H|, and sigma_2 is the
  square root of the largest such eigenvalue (an exact rational).  It
  and the character-sum maximum M share one budgeted scan of trace
  functionals over the classes mod a trace dual;
* numerically, by block subspace iteration with T*T^T, applied
  matrix-free as two gathers along the edge list (sigma2_oracle).

The two routes serve as mutual oracles; the character route is primary
because it is exact, and a Ritz value never exceeds the true sigma_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import sqrt
from typing import Iterator

import numpy as np

from orbitcodes.errors import DEFAULT_BUDGETS, BudgetError, InternalError, ParameterError
from orbitcodes.gf import FpSubspace, digit_codes, mul_rows, product_matrices, trace_form
from orbitcodes.groupgeom import GroupA, ScalingGroup, TranslationGroup
from orbitcodes.linalg import matmul_mod_p

SCAN_CHUNK_ENTRIES = 1 << 20
ORACLE_BLOCK = 8  # vectors in sigma2_oracle's subspace
ORACLE_ITERATIONS = 200  # subspace steps before sigma2_oracle gives up
ORACLE_TOLERANCE = 1e-13  # residual norm of the converged top Ritz pair


@dataclass(frozen=True, eq=False)
class CosetGraph:
    """Bipartite coset graph, refused when made unless biregular; edge e is map e of A and coordinate e of every codeword."""

    n_left: int
    n_right: int
    left_degree: int
    right_degree: int
    edges: np.ndarray  # (n, 2) int64: the left and right vertex of every edge
    is_simple: bool

    def __post_init__(self):
        for side, count, degree in ((0, self.n_left, self.left_degree), (1, self.n_right, self.right_degree)):
            keys = self.edges[:, side]
            if len(keys) != count * degree or (np.bincount(keys, minlength=count)[:count] != degree).any():
                raise InternalError("graph is not biregular")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_left, left_degree) and (n_right, right_degree) read-only arrays of the edge ids at each vertex, rows ascending."""
        left, right = (np.argsort(self.edges[:, side], kind="stable") for side in (0, 1))
        left, right = left.reshape(self.n_left, self.left_degree), right.reshape(self.n_right, self.right_degree)
        left.flags.writeable = right.flags.writeable = False
        return left, right

    def summary_json(self) -> dict:
        return {
            "n_left": self.n_left,
            "n_right": self.n_right,
            "left_degree": self.left_degree,
            "right_degree": self.right_degree,
            "edges": self.edge_count,
            "simple": self.is_simple,
        }


def build_graph(A: GroupA, G: TranslationGroup) -> CosetGraph:
    """Coset graph of (G, H) inside A, indexed deterministically.

    Edge e is the map (s, h) of A (see GroupA).  It lies in the G-coset
    keyed by (s reduced mod G, h) and in the H-coset identified with the
    element h^-1 * s of S.  Left indices are assigned in first-appearance
    order along the edges: one np.unique of the reduced keys gives every
    G-coset its first s, and (s, h) is left vertex (its coset's rank by
    first s) * |H| + h.  Right indices are the digit-order positions in
    S.  Both come from whole-array operations: one reduction of S's points
    against G's RREF, and one stacked F_p product of S's points with the
    product matrices of all of H's inverses (gf.product_matrices).
    """
    S, H = A.S, A.H
    p = A.ambient.p
    _, first, coset = np.unique(digit_codes(G.points.reduce(S.points()), p), return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)  # sorted G-coset -> the rank of its first s
    rank[np.argsort(first)] = np.arange(len(first))
    left = (rank[coset].reshape(-1, 1) * H.order + np.arange(H.order)).ravel()
    n_left, n_right = len(first) * H.order, S.size
    scaled = matmul_mod_p(S.points(), product_matrices(A.ambient, H.inverses), p)  # (|H|, |S|, k): s * h^-1
    right = S.index_of(scaled).T.ravel()
    if (right < 0).any():
        raise InternalError("h^-1 * s fell outside the translation space")
    edges = np.stack([left, right], axis=1)
    edges.flags.writeable = False
    return CosetGraph(
        n_left=n_left,
        n_right=n_right,
        left_degree=G.size,
        right_degree=H.order,
        edges=edges,
        is_simple=bool(np.diff(np.sort(left * n_right + right)).all()),
    )


def sigma2_oracle(graph: CosetGraph, edge_budget: int = DEFAULT_BUDGETS["oracle_edges"]) -> float:
    """Second singular value of T = B / sqrt(dL*dR), by block subspace iteration.

    The graph is biregular, so T*T^T on the smaller side is two gathers
    over the edges sorted by side, with no matrix built.  It must fix the
    constant vector (checked to 1e-9: sigma_1 = 1), which is deflated.  A
    block of min(ORACLE_BLOCK, side - 1) vectors, from a fixed arithmetic
    start, takes one QR per step; a Rayleigh-Ritz eigh of the block's
    projection gives the top Ritz pair, and the iteration stops when its
    residual norm is at most ORACLE_TOLERANCE.  Graphs with more edges
    than the budget, and iterations past ORACLE_ITERATIONS, are refused.
    """
    if graph.edge_count > edge_budget:
        raise BudgetError(f"graph of {graph.edge_count} edges exceeds the oracle edge budget {edge_budget}")
    left, right = graph.incidence
    by_right = graph.edges[right, 0]  # left neighbours of each right vertex
    by_left = graph.edges[left, 1]
    first, second = (by_right, by_left) if graph.n_left <= graph.n_right else (by_left, by_right)
    scale = 1.0 / (graph.left_degree * graph.right_degree)

    def step(x: np.ndarray) -> np.ndarray:  # T*T^T on the smaller side, column by column
        return x[first].sum(axis=1)[second].sum(axis=1) * scale

    side = len(second)
    if np.abs(step(np.ones((side, 1))) - 1.0).max() > 1e-9:
        raise InternalError("the walk operator does not fix the constant vector")
    block = min(ORACLE_BLOCK, side - 1)
    if block < 1:
        return 0.0
    i = np.arange(side * block, dtype=np.int64).reshape(side, block)
    x = (i * 2654435761 % 4294967291) / 4294967291 - 0.5  # fixed start: no seed, no random generator
    q = np.linalg.qr(x - x.mean(axis=0))[0]
    for _ in range(ORACLE_ITERATIONS):
        y = step(q)
        y -= y.mean(axis=0)  # deflate the constant vector
        theta, w = np.linalg.eigh(q.T @ y)
        top = w[:, -1]
        if np.linalg.norm(y @ top - theta[-1] * (q @ top)) <= ORACLE_TOLERANCE:
            return sqrt(max(float(theta[-1]), 0.0))
        q = np.linalg.qr(y)[0]
    raise BudgetError(f"sigma_2 oracle did not converge in {ORACLE_ITERATIONS} iterations")


@dataclass(frozen=True)
class Sigma2Exact:
    """Exact character-counting result; value = sqrt(lambda_max)."""

    value: float
    lambda_max: Fraction


def _character_scan(space: FpSubspace, elements: np.ndarray, field_budget: int) -> Iterator[np.ndarray]:
    """Tr(a*e) for one a in every nonzero class mod space^perp and every row e of elements, a chunk of a's at a time.

    The classes are refused past field_budget before any functional is
    formed.  The functionals a -> Tr(a*e) are elements times the trace
    form, and each chunk of representatives (space^perp.nonzero_coset_reps)
    is one F_p product with them, its values kept near SCAN_CHUNK_ENTRIES.
    """
    ctx = space.ctx
    perp = space.dual()
    points = ctx.order // perp.size - 1
    if points > field_budget:
        raise BudgetError(f"character scan of {points} points exceeds the exhaustive-scan budget {field_budget}")
    forms = matmul_mod_p(elements, trace_form(ctx), ctx.p).T
    for reps in perp.nonzero_coset_reps(max(1, SCAN_CHUNK_ENTRIES // max(1, forms.shape[1]))):
        yield matmul_mod_p(reps, forms, ctx.p)


def sigma2_exact(G: TranslationGroup, A: GroupA, field_budget: int = DEFAULT_BUDGETS["field_scan"]) -> Sigma2Exact:
    """sigma_2 from the walk eigenvalues lambda_a = Pr_h[h^-1 a in G^perp], for A = S x| H.

    Maximizes over a outside S^perp.  A holds an S closed under H, and G
    must lie in S (refused otherwise), so S^perp lies in G^perp and is
    closed under H: lambda_a depends only on a mod S^perp, and one
    representative per nonzero class (|S| - 1 points, not |F|) reaches
    every value.  h^-1 a lies in G^perp iff the dim G trace functionals
    a -> Tr(g_i h^-1 a) vanish, so all |H| * dim G of them are one F_p
    matrix product per chunk of representatives.  The maximum is an exact
    rational with denominator |H| and only the final square root is
    floating point.
    """
    S, H, k = A.S, A.H, A.ambient.k
    if (S.index_of(G.points.basis) < 0).any():
        raise ParameterError("the translation space of A must contain G")
    products = mul_rows(A.ambient, H.inverses[:, None], G.points.basis[None])  # (|H|, dim G, k): g_i * h^-1
    best = 0
    for values in _character_scan(S, products.reshape(-1, k), field_budget):  # column (h, i): Tr(a * g_i * h^-1)
        vanishing = ~values.reshape(len(values), H.order, G.points.dim).any(axis=2)  # h^-1 a in G^perp
        best = max(best, int(vanishing.sum(axis=1).max()))
    lam = Fraction(best, H.order)
    return Sigma2Exact(value=sqrt(lam), lambda_max=lam)


@dataclass(frozen=True)
class CharSumMax:
    """Maximum additive-character sum over H, over all nontrivial characters."""

    value: float
    sq_exact: Fraction | None  # exact |sum|^2 for p <= 3, else None


def char_sum_max(H: ScalingGroup, field_budget: int = DEFAULT_BUDGETS["field_scan"]) -> CharSumMax:
    """M = max over a not in H^perp of |sum_{h in H} chi_a(h)|.

    The exponents Tr(a*h) depend only on a mod span(H)^perp, so one
    representative per nonzero class (p^dim span(H) - 1 points) is
    scanned, with all |H| exponents of a chunk as one F_p matrix product.
    Character values are p-th roots of unity; each distinct exponent
    histogram is evaluated once, in double precision.  For p <= 3 the
    squared magnitude of the maximum is also returned exactly via the
    histogram autocorrelation identity |sum|^2 = B_0 - B_1.
    """
    p = H.ctx.p
    histograms: set[tuple[int, ...]] = set()
    for exps in _character_scan(FpSubspace(H.ctx, H.elements), H.elements, field_budget):
        exps += p * np.arange(len(exps))[:, None]
        hist = np.bincount(exps.ravel(), minlength=p * len(exps)).reshape(len(exps), p)
        histograms.update(map(tuple, hist.tolist()))
    if not histograms:
        raise InternalError("no nontrivial character found")  # pragma: no cover
    zeta = np.exp(2j * np.pi * np.arange(p) / p)
    best = -1.0
    best_counts: tuple[int, ...] = ()
    for counts in sorted(histograms):
        val = abs(sum(c * zeta[e] for e, c in enumerate(counts) if c))
        if val > best:
            best, best_counts = val, counts
    best_sq: Fraction | None = None
    if p <= 3:
        b0 = sum(c * c for c in best_counts)
        b1 = sum(best_counts[e] * best_counts[(e + 1) % p] for e in range(p))
        best_sq = Fraction(b0 - b1)
    return CharSumMax(value=best, sq_exact=best_sq)
