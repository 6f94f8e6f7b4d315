"""The bipartite coset graph and its spectral analysis.

Left vertices are the right cosets of the translation subgroup G in A,
right vertices the right cosets of the scaling subgroup H (identified with
the elements of the translation space S), and the edges are the elements
of A itself.  The second singular value of the degree-normalized
bi-adjacency operator is computed two independent ways:

* exactly, by counting over additive characters: for each a outside the
  trace-dual of S, the two-step walk eigenvalue is
  lambda_a = |{h in H : h^-1 * a in G^perp}| / |H|, and sigma_2 is the
  square root of the largest such eigenvalue (an exact rational);
* numerically, by dense SVD of the normalized bi-adjacency matrix.

The two routes serve as mutual oracles; the character route is primary
because it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt

import numpy as np

from orbitcodes.errors import BudgetError, InternalError, ParameterError
from orbitcodes.gf import FieldContext, FieldElement, FpSubspace, span_of, trace
from orbitcodes.groupgeom import GroupA, ScalingGroup, TranslationGroup

SVD_SIDE_BUDGET = 5000
FIELD_SCAN_BUDGET = 1 << 20


@dataclass
class CosetGraph:
    """Bipartite coset graph; edge e is enumerate-A element e."""

    n_left: int
    n_right: int
    left_degree: int
    right_degree: int
    edges: tuple[tuple[int, int], ...]
    left_reps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (shift, scale) digit vectors
    right_elements: tuple[FieldElement, ...]
    is_simple: bool
    # (omega, per-side local check maps), filled by codecore on the first check
    local_maps: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def biadjacency(self) -> np.ndarray:
        b = np.zeros((self.n_left, self.n_right), dtype=np.int64)
        for l, r in self.edges:
            b[l, r] += 1
        return b

    def summary_json(self) -> dict:
        return {
            "n_left": self.n_left,
            "n_right": self.n_right,
            "left_degree": self.left_degree,
            "right_degree": self.right_degree,
            "edges": self.edge_count,
            "simple": self.is_simple,
        }

    def edge_rows(self) -> list[tuple[int, int, int]]:
        """(edge_id, left_idx, right_idx) rows for CSV export."""
        return [(e, l, r) for e, (l, r) in enumerate(self.edges)]


def build_graph(A: GroupA, G: TranslationGroup) -> CosetGraph:
    """Coset graph of (G, H) inside A, indexed deterministically.

    A map (s, h) lies in the G-coset keyed by (s reduced mod G, h) and in
    the H-coset identified with the element h^-1 * s of S.  Left indices
    are assigned in first-appearance order along the edge enumeration;
    right indices are the digit-order positions in S.
    """
    S, H = A.S, A.H
    left_index: dict[tuple, int] = {}
    left_reps: list = []
    edges: list[tuple[int, int]] = []
    h_elements = H.elements()
    h_inverses = H.inverses
    for s in S.points():
        reduced = G.points.reduce(s)
        for hi in range(H.order):
            key = (reduced.coeffs, h_elements[hi].coeffs)
            li = left_index.get(key)
            if li is None:
                li = len(left_reps)
                left_index[key] = li
                left_reps.append(key)
            r = S.index_of(h_inverses[hi] * s)
            edges.append((li, r))

    n_left, n_right = len(left_reps), S.size
    if n_left * G.size != A.size or n_right * H.order != A.size:
        raise InternalError("coset counts inconsistent with the group size")
    left_deg = np.zeros(n_left, dtype=np.int64)
    right_deg = np.zeros(n_right, dtype=np.int64)
    for l, r in edges:
        left_deg[l] += 1
        right_deg[r] += 1
    if not (np.all(left_deg == G.size) and np.all(right_deg == H.order)):
        raise InternalError("graph is not biregular")
    simple = len(set(edges)) == len(edges)
    return CosetGraph(
        n_left=n_left,
        n_right=n_right,
        left_degree=G.size,
        right_degree=H.order,
        edges=tuple(edges),
        left_reps=tuple(left_reps),
        right_elements=S.points(),
        is_simple=simple,
    )


def sigma2_svd(graph: CosetGraph, side_budget: int = SVD_SIDE_BUDGET) -> float:
    """Second singular value of T = B / sqrt(dL*dR), by dense SVD.

    The largest singular value must be 1 (checked to 1e-9); sizes beyond
    the side budget are refused rather than attempted.
    """
    if max(graph.n_left, graph.n_right) > side_budget:
        raise BudgetError(
            f"graph sides {graph.n_left}x{graph.n_right} exceed the SVD budget {side_budget}"
        )
    t = graph.biadjacency().astype(np.float64)
    t /= sqrt(graph.left_degree * graph.right_degree)
    svals = np.linalg.svd(t, compute_uv=False)
    if abs(svals[0] - 1.0) > 1e-9:
        raise InternalError(f"leading singular value {svals[0]!r} differs from 1")
    return float(svals[1]) if len(svals) > 1 else 0.0


@dataclass(frozen=True)
class Sigma2Exact:
    """Exact character-counting result; value = sqrt(lambda_max)."""

    value: float
    lambda_max: Fraction

    def __float__(self) -> float:
        return self.value


def sigma2_exact(
    G: TranslationGroup,
    H: ScalingGroup,
    S: FpSubspace,
    ambient: FieldContext,
    field_budget: int = FIELD_SCAN_BUDGET,
) -> Sigma2Exact:
    """sigma_2 from the walk eigenvalues lambda_a = Pr_h[h^-1 a in G^perp].

    Maximizes over a outside S^perp; the maximum is an exact rational with
    denominator |H| and only the final square root is floating point.
    """
    if ambient.order > field_budget:
        raise BudgetError(f"field size {ambient.order} exceeds the exhaustive-scan budget {field_budget}")
    g_perp = G.points.dual().point_set()
    s_perp = S.dual().point_set()
    inverses = H.inverses
    best = 0
    for a in ambient.elements():
        if a in s_perp:
            continue
        cnt = 0
        for ih in inverses:
            if ih * a in g_perp:
                cnt += 1
        if cnt > best:
            best = cnt
            if best == H.order:
                break
    lam = Fraction(best, H.order)
    return Sigma2Exact(value=sqrt(lam), lambda_max=lam)


@dataclass(frozen=True)
class CharSumMax:
    """Maximum additive-character sum over H, over all nontrivial characters."""

    value: float
    sq_exact: Fraction | None  # exact |sum|^2 for p <= 3, else None
    argmax_code: int


def char_sum_max(H: ScalingGroup, ambient: FieldContext, field_budget: int = 10**6) -> CharSumMax:
    """M = max over a not in H^perp of |sum_{h in H} chi_a(h)|.

    Character values are p-th roots of unity; sums are evaluated from exact
    exponent histograms, in double precision.  For p <= 3 the squared
    magnitude of the tracked maximum is also returned exactly via the
    histogram autocorrelation identity |sum|^2 = B_0 - B_1.
    """
    if ambient.order > field_budget:
        raise BudgetError(f"field size {ambient.order} exceeds the exhaustive-scan budget {field_budget}")
    p = ambient.p
    h_perp = span_of(ambient, H.elements()).dual().point_set()
    zeta = np.exp(2j * np.pi * np.arange(p) / p)
    best = -1.0
    best_sq: Fraction | None = None
    best_code = -1
    for a in ambient.elements():
        if a in h_perp:
            continue
        counts = [0] * p
        for h in H.elements():
            counts[trace(a * h)] += 1
        val = abs(sum(c * zeta[e] for e, c in enumerate(counts) if c))
        if val > best:
            best = val
            best_code = a.code()
            if p <= 3:
                b0 = sum(c * c for c in counts)
                b1 = sum(counts[e] * counts[(e + 1) % p] for e in range(p))
                best_sq = Fraction(b0 - b1)
            else:
                best_sq = None
    if best < 0:
        raise InternalError("no nontrivial character found")  # pragma: no cover
    return CharSumMax(value=best, sq_exact=best_sq, argmax_code=best_code)


def spectral_bounds(
    p: int, M: float, h_order: int, m: int, instantiation: str
) -> tuple[float, float]:
    """(general bound, instantiation bound) on sigma_2.

    general = sqrt(1/p + M/|H|); the instantiation bound specializes M to
    the orthogonality value 1 (balanced construction) or the Gauss-sum
    bound sqrt(q) with q = p^(m+1) (tunable construction).
    """
    bound_general = sqrt(1.0 / p + M / h_order)
    if instantiation == "I":
        bound_instance = sqrt(1.0 / p + 1.0 / (p**m - 1))
    elif instantiation == "II":
        bound_instance = sqrt(1.0 / p + sqrt(p ** (m + 1)) / h_order)
    else:
        raise ParameterError(f"unknown instantiation {instantiation!r}")
    return bound_general, bound_instance


@dataclass
class SpectralReport:
    sigma2_exact: float
    sigma2_svd: float
    bound_general: float
    bound_instance: float
    char_sum_max: float
    lambda_max: Fraction

    TOLERANCE = 1e-9

    def checks(self) -> dict[str, bool]:
        return {
            "oracle_agreement": abs(self.sigma2_exact - self.sigma2_svd) <= self.TOLERANCE,
            "within_instance_bound": self.sigma2_exact <= self.bound_instance + self.TOLERANCE,
            "within_general_bound": self.sigma2_exact <= self.bound_general + self.TOLERANCE,
        }

    def all_ok(self) -> bool:
        return all(self.checks().values())

    def to_json(self) -> dict:
        return {
            "sigma2_exact": self.sigma2_exact,
            "sigma2_svd": self.sigma2_svd,
            "bound_general": self.bound_general,
            "bound_instance": self.bound_instance,
            "M": self.char_sum_max,
            "lambda_max": str(self.lambda_max),
            "checks": self.checks(),
        }


# -- two-step walk diagnostics -----------------------------------------------


def two_step_counts(graph: CosetGraph) -> np.ndarray:
    """Integer matrix B^T B; entry (j, j') counts 2-paths between right cosets."""
    b = graph.biadjacency()
    return b.T @ b


def walk_difference_counts(G: TranslationGroup, H: ScalingGroup, S: FpSubspace) -> np.ndarray:
    """Counts of the step difference d = h^-1 * g over (g, h), indexed by S.

    The two-step walk from state s lands on s + h^-1 g, so row s of B^T B
    must equal these counts shifted by s — an exact cross-check of the
    transition rule against the assembled matrix.
    """
    counts = np.zeros(S.size, dtype=np.int64)
    for h_inv in H.inverses:
        for g in G.points.points():
            counts[S.index_of(h_inv * g)] += 1
    return counts


def walk_matrix_matches_rule(graph: CosetGraph, G: TranslationGroup, H: ScalingGroup, S: FpSubspace) -> bool:
    """Exact identity: (B^T B)[s, s'] == #{(g,h) : s' = s + h^-1 g}."""
    btb = two_step_counts(graph)
    diff = walk_difference_counts(G, H, S)
    pts = S.points()
    for si, s in enumerate(pts):
        for sj, s2 in enumerate(pts):
            if btb[si, sj] != diff[S.index_of(s2 - s)]:
                return False
    return True


def sample_walk_tv(
    graph: CosetGraph,
    G: TranslationGroup,
    H: ScalingGroup,
    S: FpSubspace,
    steps: int = 100_000,
    seed: int = 0,
    start_index: int = 0,
) -> float:
    """Total-variation gap between sampled one-(double)-step transitions and B^T B.

    Samples uniform (g, h), applies s' = s + h^-1 g from the start state,
    and compares the empirical distribution with the matching row of the
    normalized two-step matrix.
    """
    rng = np.random.default_rng(seed)
    g_points = G.points.points()
    h_invs = H.inverses
    start = S.points()[start_index]
    targets = np.array(
        [S.index_of(start + ih * g) for ih in h_invs for g in g_points], dtype=np.int64
    )
    picks = rng.integers(0, len(targets), size=steps)
    hits = np.bincount(targets[picks], minlength=S.size)
    empirical = hits / steps
    row = two_step_counts(graph)[start_index].astype(np.float64)
    row /= G.size * H.order
    return 0.5 * float(np.abs(empirical - row).sum())


def character_exponents(S: FpSubspace, a: FieldElement) -> tuple[int, ...]:
    """Exponent vector (Tr(a*s) over s in S) of chi_a restricted to S."""
    return tuple(trace(a * s) for s in S.points())


def character_eigencheck(
    graph: CosetGraph, G: TranslationGroup, H: ScalingGroup, S: FpSubspace, ambient: FieldContext
) -> bool:
    """Exact check that the S-characters diagonalize the two-step operator.

    Verifies (B^T B) chi_a = |G| * cnt_a * chi_a in the cyclotomic integers
    Z[zeta_p], comparing exponent histograms canonically (two integer
    combinations of p-th roots of unity agree iff their histogram
    difference is constant).  Also confirms exactly |S| distinct
    characters appear.
    """
    p = ambient.p
    btb = two_step_counts(graph)
    g_perp = G.points.dual().point_set()
    seen: dict[tuple[int, ...], int] = {}
    for a in ambient.elements():
        exps = character_exponents(S, a)
        cnt = sum(1 for ih in H.inverses if ih * a in g_perp)
        prev = seen.get(exps)
        if prev is not None:
            if prev != cnt:
                return False
            continue
        seen[exps] = cnt
        evec = np.array(exps, dtype=np.int64)
        # LHS histograms: for each row s, counts of each exponent weighted by BtB
        lhs = np.zeros((S.size, p), dtype=np.int64)
        for e in range(p):
            mask = evec == e
            if mask.any():
                lhs[:, e] = btb[:, mask].sum(axis=1)
        rhs = np.zeros((S.size, p), dtype=np.int64)
        rhs[np.arange(S.size), evec] = G.size * cnt
        delta = lhs - rhs
        if not np.all(delta == delta[:, :1]):
            return False
    return len(seen) == S.size
