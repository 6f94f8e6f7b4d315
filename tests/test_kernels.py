"""The batched local check, the digit-array Schur product and the chunked
distance enumeration, each against its slow scalar oracle (tests/oracles.py)."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import dfs_min_weight, scalar_tables, scalar_vertex_degrees
from orbitcodes import codecore
from orbitcodes.codecore import (
    Codeword,
    MessageSpace,
    check_local_rs,
    codeword_from_digits,
    encode_basis_digits,
    min_distance_exhaustive,
    schur_check,
    schur_product,
)
from orbitcodes.errors import ParameterError
from orbitcodes.gf import build_field, mul_matrix


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
    full = min_distance_exhaustive(sub, inst.omega, inst.G, inst.H, inst.params)
    prime = min_distance_exhaustive(sub, inst.omega, inst.G, inst.H, inst.params, budget=2**dims)
    assert (full.mode, prime.mode) == ("full-field", "prime-subcode")
    assert full.value == dfs_min_weight(scalar_tables(sub, inst.omega, prime_only=False), 2)
    assert prime.value == dfs_min_weight(scalar_tables(sub, inst.omega, prime_only=True), 2)


def test_distance_matches_dfs_oracle_at_p3(inst1_p3):
    inst = inst1_p3
    params = inst.code_params(D=24)
    ms = inst.message_space(D=24)
    res = min_distance_exhaustive(ms, inst.omega, inst.G, inst.H, params)
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
