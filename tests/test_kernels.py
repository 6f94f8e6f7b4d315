"""The batched local check, the digit-array Schur product, the chunked
distance enumeration, the quotient spectral scans and the restriction-of-
scalars message space, each against its slow scalar oracle
(tests/oracles.py)."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    dfs_min_weight,
    scalar_char_sum_max,
    scalar_message_space_generic,
    scalar_sigma2_exact,
    scalar_tables,
    scalar_vertex_degrees,
)
from orbitcodes import codecore, cosetgraph
from orbitcodes.codecore import (
    CodeParams,
    Codeword,
    MessageSpace,
    check_local_rs,
    codeword_from_digits,
    encode_basis_digits,
    message_space,
    min_distance_exhaustive,
    schur_check,
    schur_product,
)
from orbitcodes.cosetgraph import char_sum_max, sigma2_exact
from orbitcodes.errors import BudgetError, ParameterError
from orbitcodes.gf import FpSubspace, build_field, mul_matrix
from orbitcodes.groupgeom import ScalingGroup, TranslationGroup, scaling_subgroup
from orbitcodes.instance import InstanceConfig, build_instance
from orbitcodes.numutil import divisors
from orbitcodes.report import spectrum_section


def _fast_degrees(rep):
    return [(v.side, v.index, v.interp_degree) for v in rep.vertices]


def _basis_words(inst):
    digits = encode_basis_digits(inst.message_space(), inst.omega)
    return [codeword_from_digits(inst.ambient, d) for d in digits]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 6), (3, 4), (5, 3)])
def test_mul_matrix_matches_scalar_products(p, k):
    ctx = build_field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    for x_code, y_code in rng.integers(0, ctx.order, size=(20, 2)):
        x, y = ctx.from_int(int(x_code)), ctx.from_int(int(y_code))
        got = mul_matrix(x) @ np.array(y.coeffs) % p
        assert tuple(int(c) for c in got) == (x * y).coeffs


def test_local_degrees_match_scalar_oracle_on_basis(inst1_p2):
    inst = inst1_p2
    for cw in _basis_words(inst):
        rep = check_local_rs(cw, inst.graph, inst.omega, inst.params)
        assert _fast_degrees(rep) == scalar_vertex_degrees(cw, inst.graph, inst.omega)


def test_local_degrees_match_scalar_oracle_on_every_schur_pair(inst1_p2):
    inst = inst1_p2
    words = _basis_words(inst)
    for i, j in itertools.combinations(range(len(words)), 2):
        prod = schur_product(words[i], words[j])
        assert prod.values == tuple(a * b for a, b in zip(words[i].values, words[j].values))
        rep = schur_check(words[i], words[j], inst.graph, inst.omega, inst.params)
        assert _fast_degrees(rep) == scalar_vertex_degrees(prod, inst.graph, inst.omega)
        assert rep.all_ok


def test_local_degrees_match_scalar_oracle_on_random_words(inst1_p2):
    inst = inst1_p2
    rng = np.random.default_rng(11)
    for _ in range(20):
        cw = Codeword(values=tuple(inst.ambient.from_int(int(v)) for v in rng.integers(0, 64, inst.n)))
        rep = check_local_rs(cw, inst.graph, inst.omega, inst.params)
        assert _fast_degrees(rep) == scalar_vertex_degrees(cw, inst.graph, inst.omega)


@pytest.mark.parametrize("name", ["inst2_p2", "inst1_p3"])
def test_local_degrees_match_scalar_oracle_on_larger_rungs(name, request):
    inst = request.getfixturevalue(name)
    words = _basis_words(inst)
    for cw in (words[0], schur_product(words[1], words[-1])):
        rep = check_local_rs(cw, inst.graph, inst.omega, inst.params)
        assert _fast_degrees(rep) == scalar_vertex_degrees(cw, inst.graph, inst.omega)


def test_local_maps_are_cached_per_graph(inst1_p2):
    inst = inst1_p2
    cw = _basis_words(inst)[0]
    check_local_rs(cw, inst.graph, inst.omega, inst.params)
    maps = inst.graph.local_maps
    check_local_rs(cw, inst.graph, list(inst.omega), inst.params)
    assert inst.graph.local_maps is maps


def test_local_check_rejects_an_unstructured_orbit(inst1_p2):
    inst = inst1_p2
    omega = list(inst.omega)
    omega[0], omega[-1] = omega[-1], omega[0]
    zero = Codeword(values=tuple(inst.ambient.zero() for _ in range(inst.n)))
    with pytest.raises(ParameterError, match="base set"):
        check_local_rs(zero, inst.graph, omega, inst.params)
    check_local_rs(zero, inst.graph, inst.omega, inst.params)  # the cache recovers


def _subspace(ms, dims):
    return MessageSpace(ms.ctx, ms.D, ms.basis[:dims], ms.dim_u, ms.dim_v, ms.fp_matrix[:dims])


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_distance_matches_dfs_oracle_in_both_modes(inst1_p2, dims):
    inst = inst1_p2
    sub = _subspace(inst.message_space(), dims)
    full = min_distance_exhaustive(sub, inst.omega)
    prime = min_distance_exhaustive(sub, inst.omega, budget=2**dims)
    assert (full.mode, prime.mode) == ("full-field", "prime-subcode")
    assert full.value == dfs_min_weight(scalar_tables(sub, inst.omega, prime_only=False), 2)
    assert prime.value == dfs_min_weight(scalar_tables(sub, inst.omega, prime_only=True), 2)


def test_distance_matches_dfs_oracle_at_p3(inst1_p3):
    inst = inst1_p3
    ms = inst.message_space(D=24)
    res = min_distance_exhaustive(ms, inst.omega)
    assert (res.value, res.mode, res.enumerated) == (639, "prime-subcode", 3**6)
    assert res.value == dfs_min_weight(scalar_tables(ms, inst.omega, prime_only=True), 3)


@pytest.mark.parametrize("p,sizes,k", [(2, [2] * 7, 3), (3, [3] * 5, 2), (5, [5, 5, 5], 9), (2, [4, 4, 4], 12)])
def test_chunked_enumeration_matches_dfs_with_many_prefixes(monkeypatch, p, sizes, k):
    # a tiny low table forces several leading rows into the prefix loop
    monkeypatch.setattr(codecore, "LOW_TABLE_BYTES", 64)
    rng = np.random.default_rng(sum(sizes) + k)
    tables = []
    for size in sizes:
        tab = rng.integers(0, p, size=(size, 6, k))
        tab[0] = 0
        tables.append(tab)
    assert codecore._min_weight_chunked(tables, p) == dfs_min_weight(tables, p)


def _assert_sigma2_matches_oracle(G, H, S, ambient):
    fast, slow = sigma2_exact(G, H, S, ambient), scalar_sigma2_exact(G, H, S, ambient)
    assert (fast.lambda_max, fast.value) == (slow.lambda_max, slow.value)
    return fast


def _assert_char_sum_matches_oracle(H, ambient):
    fast, slow = char_sum_max(H, ambient), scalar_char_sum_max(H, ambient)
    assert (fast.value, fast.sq_exact) == (slow.value, slow.sq_exact)
    return fast


def test_spectral_scans_match_scalar_oracles_on_instances(all_instances):
    for inst in all_instances:
        _assert_sigma2_matches_oracle(inst.G, inst.H, inst.S, inst.ambient)
        _assert_char_sum_matches_oracle(inst.H, inst.ambient)


def test_spectral_scans_match_scalar_oracles_one_point_per_chunk(monkeypatch, inst1_p3, inst2_p2):
    # every representative in its own chunk: the maxima must carry across chunks
    monkeypatch.setattr(cosetgraph, "SCAN_CHUNK_ENTRIES", 1)
    for inst in (inst1_p3, inst2_p2):
        _assert_sigma2_matches_oracle(inst.G, inst.H, inst.S, inst.ambient)
        _assert_char_sum_matches_oracle(inst.H, inst.ambient)
    f64 = build_field(2, 6)
    for d in (9, 21):  # |sum| is 5 on some classes and 3 on the last one scanned
        _assert_char_sum_matches_oracle(scaling_subgroup(f64, d), f64)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_spectral_scans_match_scalar_oracles_on_every_subgroup(p, k):
    # G = F_p and S = span(H), the smallest H-closed space containing it
    ctx = build_field(p, k)
    prime_field = TranslationGroup(FpSubspace.from_vectors(ctx, [ctx.one()]))
    for d in divisors(ctx.order - 1):
        h = scaling_subgroup(ctx, d)
        _assert_sigma2_matches_oracle(prime_field, h, FpSubspace.from_vectors(ctx, h.elements()), ctx)
        _assert_char_sum_matches_oracle(h, ctx)


def test_sigma2_degenerate_one_step_walk_matches_oracle(inst1_p2):
    trivial_h = ScalingGroup(inst1_p2.ambient.one(), 1)
    g = inst1_p2.G
    assert _assert_sigma2_matches_oracle(g, trivial_h, g.points, inst1_p2.ambient).value == 0.0
    assert _assert_sigma2_matches_oracle(g, trivial_h, inst1_p2.S, inst1_p2.ambient).value == 1.0


def test_scan_budget_bounds_points_visited(inst1_p2):
    # I(2,2): |S| = 16 gives 15 nonzero classes mod S^perp, span(H) = F_4 gives 3
    inst = inst1_p2
    with pytest.raises(BudgetError, match="15 points"):
        sigma2_exact(inst.G, inst.H, inst.S, inst.ambient, field_budget=14)
    assert sigma2_exact(inst.G, inst.H, inst.S, inst.ambient, field_budget=15).lambda_max == Fraction(1, 3)
    with pytest.raises(BudgetError, match="3 points"):
        char_sum_max(inst.H, inst.ambient, field_budget=2)
    assert char_sum_max(inst.H, inst.ambient, field_budget=3).value == 1.0


def test_sigma2_exact_rejects_a_space_not_closed_under_h(inst1_p2):
    inst = inst1_p2
    with pytest.raises(ParameterError, match="closed under scaling"):
        sigma2_exact(inst.G, inst.H, inst.G.points, inst.ambient)


def test_spectrum_section_computed_on_i23():
    # F = 2^21: the quotient scans visit 511 and 7 points, not 2^21
    sec = spectrum_section(build_instance(InstanceConfig("I", 2, 3)))
    assert sec["status"] == "computed"
    assert sec["lambda_max"] == "3/7"
    assert sec["M"] == 1.0
    assert all(sec["checks"].values()) and sec["ok"]


@pytest.mark.parametrize(
    "p,k,gens,h_order,r,D",
    [
        (2, 6, (9,), 1, Fraction(1, 4), 8),  # the fallback fixture of test_codecore
        (2, 6, (9,), 7, Fraction(1, 2), 48),
        (2, 6, (9, 5), 9, Fraction(3, 4), 48),
        (3, 3, (4,), 13, Fraction(1, 2), 26),
        (2, 6, (9,), 7, Fraction(1, 2), 260),  # D > 256: the generic path has no size limit
    ],
)
def test_generic_message_space_matches_scalar_oracle(p, k, gens, h_order, r, D):
    ctx = build_field(p, k)
    G = TranslationGroup(FpSubspace(ctx, [ctx.from_int(g) for g in gens]))
    assert G.invariant_poly.int_coeffs() is None  # the annihilator is outside F_p[X]
    H = scaling_subgroup(ctx, h_order)
    params = CodeParams("I", 2, 2, r, D, max(D, 48))
    ms = message_space(G, H, params)
    assert ms.fp_matrix is None and ms.verification["all_ok"]
    assert list(ms.basis) == scalar_message_space_generic(G, H, params)
