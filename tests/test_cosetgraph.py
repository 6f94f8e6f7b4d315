"""Coset graph structure and the spectral oracles."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    biadjacency,
    char_exponent,
    character_eigencheck,
    divisors,
    point_set,
    sample_walk_tv,
    sigma2_svd,
    two_step_counts,
    walk_matrix_matches_rule,
)
from orbitcodes import codecore, cosetgraph
from orbitcodes.cosetgraph import (
    CosetGraph,
    char_sum_max,
    sigma2_exact,
    sigma2_oracle,
)
from orbitcodes.errors import BudgetError, InternalError
from orbitcodes.gf import build_field
from orbitcodes.groupgeom import GroupA, ScalingGroup, scaling_subgroup
from orbitcodes.instance import InstanceConfig, build_instance
from orbitcodes.report import spectrum_section


def test_graph_shapes(inst1_p2, inst1_p3, inst2_p2):
    g = inst1_p2.graph
    assert (g.n_left, g.n_right, g.edge_count) == (12, 16, 48)
    assert (g.left_degree, g.right_degree) == (4, 3)
    g = inst2_p2.graph
    assert (g.n_left, g.n_right, g.edge_count) == (112, 64, 448)
    assert (g.left_degree, g.right_degree) == (4, 7)
    g = inst1_p3.graph
    assert (g.n_left, g.n_right, g.edge_count) == (72, 81, 648)
    assert (g.left_degree, g.right_degree) == (9, 8)


def test_graph_simple_and_biregular(all_instances):
    for inst in all_instances:
        g = inst.graph
        assert g.is_simple
        b = biadjacency(g)
        assert b.max() == 1
        assert (b.sum(axis=1) == g.left_degree).all()
        assert (b.sum(axis=0) == g.right_degree).all()
        assert b.sum() == g.edge_count == inst.n


def test_edge_coordinate_consistency(all_instances):
    # edge e corresponds to orbit point omega[e]; its left vertex groups the
    # G-orbit of that point and its right vertex the H-orbit
    for inst in all_instances:
        g = inst.graph
        omega = inst.ambient.elements_of(inst.omega)
        by_left = {}
        by_right = {}
        for e, (l, r) in enumerate(g.edges.tolist()):
            by_left.setdefault(l, set()).add(omega[e])
            by_right.setdefault(r, set()).add(omega[e])
        for pts in by_left.values():
            x = next(iter(pts))
            assert pts == {x + t for t in inst.ambient.elements_of(inst.G.points.points())}
        for pts in by_right.values():
            x = next(iter(pts))
            assert pts == {h * x for h in inst.ambient.elements_of(inst.H.elements)}


def test_sigma2_svd_complete_bipartite_is_zero():
    edges = np.array([(l, r) for l in range(3) for r in range(4)], dtype=np.int64)
    graph = CosetGraph(
        n_left=3,
        n_right=4,
        left_degree=4,
        right_degree=3,
        edges=edges,
        is_simple=True,
    )
    assert sigma2_svd(graph) == pytest.approx(0.0, abs=1e-12)
    assert sigma2_oracle(graph) == pytest.approx(0.0, abs=1e-12)


def test_sigma2_svd_budget_refusal():
    edges = np.array([(l, 0) for l in range(6000)], dtype=np.int64)
    graph = CosetGraph(6000, 1, 1, 6000, edges, True)
    with pytest.raises(BudgetError, match=r"^graph of 6000 edges exceeds the oracle edge budget 5999$"):
        sigma2_oracle(graph, edge_budget=5999)
    assert sigma2_oracle(graph, edge_budget=6000) == 0.0


def test_sigma2_oracles_agree(all_instances):
    for inst in all_instances:
        exact = sigma2_exact(inst.G, inst.A)
        svd = sigma2_svd(inst.graph)
        assert abs(exact.value - svd) <= 1e-9
        assert 0 <= exact.lambda_max < 1
        assert exact.value == pytest.approx(float(exact.lambda_max) ** 0.5, abs=1e-12)


def test_sigma2_exact_values_regression(inst1_p2, inst1_p3, inst2_p2):
    assert sigma2_exact(inst1_p2.G, inst1_p2.A).lambda_max == Fraction(1, 3)
    assert sigma2_exact(inst1_p3.G, inst1_p3.A).lambda_max == Fraction(1, 4)
    assert sigma2_exact(inst2_p2.G, inst2_p2.A).lambda_max == Fraction(3, 7)


def test_sigma2_exact_degenerate_one_step_walk(inst1_p2):
    # with H = {1} and S = G the eigenvalue set degenerates: every a outside
    # S^perp has lambda_a = [a in G^perp] and G^perp = S^perp, so sigma2 = 0;
    # feeding a larger S makes some a hit G^perp and sigma2 = 1
    ambient = inst1_p2.ambient
    trivial_h = ScalingGroup(ambient, ambient.one().coeffs, 1)
    g = inst1_p2.G
    assert sigma2_exact(g, GroupA(g.points, trivial_h)).value == 0.0
    assert sigma2_exact(g, GroupA(inst1_p2.S, trivial_h)).value == 1.0


def test_char_sum_max_full_multiplicative_group_is_one():
    # H = F_q^x inside F_q: orthogonality leaves |0 - chi_a(0)| = 1
    for p, k in ((2, 2), (3, 2), (2, 3)):
        ctx = build_field(p, k)
        h = scaling_subgroup(ctx, ctx.order - 1)
        res = char_sum_max(h)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        if p <= 3:
            assert res.sq_exact == 1


def test_char_sum_max_index_two_subgroup_f9():
    f9 = build_field(3, 2)
    h = scaling_subgroup(f9, 4)  # index 2 in F_9^x
    res = char_sum_max(h)
    assert res.value <= 3.0 + 1e-9  # Gauss bound sqrt(9)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_gauss_bound_all_subgroups(p, k):
    ctx = build_field(p, k)
    q = ctx.order
    for d in divisors(q - 1):
        h = scaling_subgroup(ctx, d)
        res = char_sum_max(h)
        assert res.value <= q**0.5 + 1e-9
        if p <= 3:
            assert res.sq_exact <= q


def test_spectral_bounds_formulas(inst1_p2, inst2_p2):
    # sqrt(1/p + M/|H|) at the measured M (1 on I(2,2)) and at the construction's bound on M
    spec = spectrum_section(inst1_p2)
    assert spec["bound_instance"] == pytest.approx((5 / 6) ** 0.5, abs=1e-12)
    assert spec["bound_general"] == pytest.approx((5 / 6) ** 0.5, abs=1e-12)
    i52 = spectrum_section(build_instance(InstanceConfig("I", 5, 2)))
    assert i52["bound_instance"] == pytest.approx((1 / 5 + 1 / 24) ** 0.5, abs=1e-12)
    assert spectrum_section(inst2_p2)["bound_instance"] == pytest.approx((0.5 + 8**0.5 / 7) ** 0.5, abs=1e-12)


def test_refused_svd_oracle_keeps_the_exact_spectrum(inst1_p2):
    # only sigma2_svd and the agreement check go; the section stays computed and passing
    full = spectrum_section(inst1_p2)
    refused = spectrum_section(inst1_p2, {"oracle_edges": 47})
    assert refused["oracle"] == "skipped: budget (graph of 48 edges exceeds the oracle edge budget 47)"
    assert refused["status"] == "computed" and refused["ok"] is True
    assert refused["checks"] == {k: v for k, v in full["checks"].items() if k != "oracle_agreement"}
    kept = ("sigma2_exact", "lambda_max", "M", "bound_general", "bound_instance")
    assert {k: refused[k] for k in kept} == {k: full[k] for k in kept}
    assert "sigma2_svd" not in refused and "sigma2_svd" in full


@pytest.fixture(scope="module")
def oracle_rungs(all_instances):
    # the reference instances, I(2,3) and I(5,2): the rungs where the dense SVD is quick
    return all_instances + [build_instance(InstanceConfig("I", p, m)) for p, m in ((2, 3), (5, 2))]


def test_sigma2_oracle_prints_as_the_dense_svd(oracle_rungs):
    # the report prints sigma2_svd at 12 significant digits
    for inst in oracle_rungs:
        assert format(sigma2_oracle(inst.graph), ".12g") == format(sigma2_svd(inst.graph), ".12g")


def test_sigma2_oracle_is_deterministic(oracle_rungs):
    for inst in oracle_rungs:
        assert sigma2_oracle(inst.graph) == sigma2_oracle(inst.graph)


def _graph(edges) -> CosetGraph:
    edges = np.array(edges, dtype=np.int64)
    n_left, n_right = edges.max(axis=0) + 1
    return CosetGraph(int(n_left), int(n_right), len(edges) // n_left, len(edges) // n_right, edges, True)


def test_sigma2_oracle_degenerate_graphs(inst1_p2):
    # one left vertex has one singular value, and two disjoint copies of a graph
    # have sigma_2 = sigma_1 = 1 (K_{3,4} is test_sigma2_svd_complete_bipartite_is_zero)
    star = _graph([(0, r) for r in range(5)])
    e = inst1_p2.graph.edges
    twice = _graph(np.concatenate([e, e + (inst1_p2.graph.n_left, inst1_p2.graph.n_right)]))
    for graph, value in ((star, 0.0), (twice, 1.0)):
        assert sigma2_oracle(graph) == pytest.approx(value, abs=1e-12)
        assert sigma2_svd(graph) == pytest.approx(value, abs=1e-12)


def test_sigma2_oracle_refuses_a_graph_that_is_not_biregular():
    # 4 edges as the degrees promise, but left vertex 0 has 3 of them and right vertex 1 none:
    # no such graph is made, so none reaches the oracle
    with pytest.raises(InternalError, match="not biregular"):
        CosetGraph(2, 2, 2, 2, np.array([(0, 0), (0, 0), (0, 1), (1, 0)], dtype=np.int64), False)


def test_local_maps_and_sigma2_oracle_read_one_incidence(inst1_p2, monkeypatch):
    # the edges are sorted by vertex once per graph: both consumers get the same arrays
    seen = []
    cached = CosetGraph.incidence
    monkeypatch.setattr(CosetGraph, "incidence", property(lambda graph: seen.append(cached.__get__(graph)) or seen[-1]))
    codecore.local_maps(inst1_p2.ambient, inst1_p2.graph, inst1_p2.omega)
    sigma2_oracle(inst1_p2.graph)
    (left, right), (left_again, right_again) = seen
    assert left is left_again and right is right_again
    assert not left.flags.writeable and not right.flags.writeable


def test_sigma2_oracle_iteration_cap_is_a_budget_refusal(inst2_p2, monkeypatch):
    monkeypatch.setattr(cosetgraph, "ORACLE_ITERATIONS", 1)
    with pytest.raises(BudgetError, match=r"^sigma_2 oracle did not converge in 1 iterations$"):
        sigma2_oracle(inst2_p2.graph)
    refused = spectrum_section(inst2_p2)
    assert refused["oracle"] == "skipped: budget (sigma_2 oracle did not converge in 1 iterations)"
    assert refused["ok"] is True and "oracle_agreement" not in refused["checks"]


def test_spectrum_section_of_ii23_carries_the_oracle():
    # II(2,3), 7680 x 4096 vertices, under the default budgets
    spec = spectrum_section(build_instance(InstanceConfig("II", 2, 3, gamma=Fraction(1))))
    assert spec["lambda_max"] == "7/15"
    assert "oracle" not in spec and spec["checks"]["oracle_agreement"] is True
    assert format(spec["sigma2_svd"], ".12g") == format(spec["sigma2_exact"], ".12g")


def test_sigma2_below_instance_bound(all_instances):
    for inst in all_instances:
        exact = sigma2_exact(inst.G, inst.A)
        spec = spectrum_section(inst)
        bg, bi = spec["bound_general"], spec["bound_instance"]
        assert exact.value <= bi + 1e-9
        assert exact.value <= bg + 1e-9


def test_character_vectors_diagonalize_two_step_operator(all_instances):
    for inst in all_instances:
        if inst.S.size <= 256:
            assert character_eigencheck(inst.graph, inst.G, inst.H, inst.S, inst.ambient)


def test_walk_identity_exact(all_instances):
    for inst in all_instances:
        assert walk_matrix_matches_rule(inst.graph, inst.G, inst.H, inst.S)


def test_walk_identity_monte_carlo(inst1_p2):
    tv = sample_walk_tv(inst1_p2.graph, inst1_p2.G, inst1_p2.H, inst1_p2.S, steps=100_000, seed=0)
    assert tv <= 0.02


def test_two_step_row_sums(inst1_p2):
    # every row of B^T B sums to |G| * |H| (total 2-path count from a vertex)
    btb = two_step_counts(inst1_p2.graph)
    assert (btb.sum(axis=1) == inst1_p2.G.size * inst1_p2.H.order).all()


def test_character_orthogonality_over_instance_closures(all_instances):
    # exhaustively over every a in the ambient field: the character sum over
    # the closure S vanishes unless a lies in the trace-dual of S
    for inst in all_instances:
        s_perp = point_set(inst.S.dual())
        p = inst.ambient.p
        pts = inst.ambient.elements_of(inst.S.points())
        for a in inst.ambient.elements():
            counts = [0] * p
            for s in pts:
                counts[char_exponent(a, s)] += 1
            if a in s_perp:
                assert counts[0] == inst.S.size
            else:
                assert len(set(counts)) == 1  # uniform histogram: the sum is 0
