"""The batched local check, the digit-array Schur product, the exhaustive
distance by counting each coordinate's kernel (against the chunked
enumeration and depth-first search) and the stacked kernel counter
(against brute force and nullspace_mod_p), the sampled distance, the
quotient spectral scans, the F_p message space (the kernel of the base-g
digit map, against U's spanning rows), the chunked encoding, the base-u
digit matrix and the batched base-degree kernel (XOR on packed words at
p = 2), the elimination (one sweep over the rows: packed words at p = 2,
narrow digits above), the bit packing, the packed F_2 product xor_rows,
and the mod-p kernel basis and coset representative, each against its
slow oracle (tests/oracles.py, or matmul_mod_p for the product)."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    BaseUExpansion,
    Poly,
    _u_row_pairs,
    base_degree,
    base_digits,
    blocked_min_distance_sampled,
    chunked_min_distance,
    dfs_min_weight,
    divisors,
    eager_rref_mod_p,
    einsum_encode_basis_digits,
    einsum_multiples,
    einsum_power_tensor,
    int64_mul_matrix,
    int64_mul_rows,
    matmul_message_basis,
    max_digit_degree,
    per_row_pack_bits,
    per_row_unpack_bits,
    poly_digits,
    row_poly,
    row_reduce_against,
    scalar_char_sum_max,
    scalar_encode,
    scalar_message_space_generic,
    scalar_nullspace,
    scalar_side_coeff_maps,
    scalar_sigma2_exact,
    scalar_tables,
    scalar_vertex_degrees,
    scaling_invariant_poly,
    synthetic_expansion_degrees,
    table_min_distance_sampled,
    translation_invariant_poly,
)
from orbitcodes import codecore, cosetgraph, fppoly, gf, linalg
from orbitcodes.codecore import (
    CodewordStore,
    MessageSpace,
    check_local_rs,
    constraint_report,
    encode_basis_digits,
    max_degree_below,
    message_space,
    min_distance_exhaustive,
    min_distance_sampled,
    schur_check,
    schur_product,
)
from orbitcodes.cosetgraph import char_sum_max, sigma2_exact
from orbitcodes.errors import BudgetError, ParameterError
from orbitcodes.gf import FpSubspace, base_p_digits, build_field, digit_codes, mul_rows, power_table, product_matrices
from orbitcodes.groupgeom import GroupA, ScalingGroup, TranslationGroup, scaling_subgroup
from orbitcodes.instance import InstanceConfig, build_instance
from orbitcodes.linalg import matmul_mod_p, nullspace_mod_p, rank_mod_p, rref_mod_p
from orbitcodes.report import distance_section, spectrum_section


def _mod_p_matrices(p, rng):
    """Random matrices mod p, among them empty, zero and full-rank ones."""
    full = np.triu(rng.integers(0, p, size=(6, 6)), 1) + np.eye(6, dtype=np.int64)  # unit upper triangular
    low_rank = rng.integers(0, p, size=(7, 2)) @ rng.integers(0, p, size=(2, 9)) % p
    return [
        np.zeros((0, 5), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int64),
        np.zeros((0, 0), dtype=np.int64),
        np.zeros((3, 6), dtype=np.int64),
        full,
        full[:, rng.permutation(6)],
        full[:4],
        rng.integers(0, p, size=(5, 9)),
        rng.integers(0, p, size=(9, 5)),
        low_rank,
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nullspace_matches_back_substitution(p):
    rng = np.random.default_rng(p)
    mats = _mod_p_matrices(p, rng)
    if p == 2:  # a wide low-rank matrix whose rows span three words, the last one partial
        mats.append(rng.integers(0, 2, size=(40, 12)) @ rng.integers(0, 2, size=(12, 150)) % 2)
    for mat in mats:
        got = nullspace_mod_p(mat, p)
        assert got.dtype == np.int64 and np.array_equal(got, scalar_nullspace(mat, p))
    if p in (3, 5):  # transposed and column-reversed views eliminate as their C-ordered copies do
        for view in [m for mat in mats for m in (mat.T, mat[:, ::-1])]:
            copy = np.ascontiguousarray(view)
            (rr, pivots), (expected, expected_pivots) = rref_mod_p(view, p), rref_mod_p(copy, p)
            assert rr.flags.c_contiguous and np.array_equal(rr, expected) and pivots == expected_pivots
            assert np.array_equal(nullspace_mod_p(view, p), nullspace_mod_p(copy, p))


@st.composite
def _elimination_cases(draw):
    """A matrix mod p with unreduced and negative entries: empty, zero, full-rank, low-rank or random, tall or wide.

    At p = 2, where rows are packed into 64-bit words, the widths include
    a word's edges and run to about 200 columns, with up to 200 rows.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    if p == 2:
        rows = draw(st.integers(0, 9) | st.integers(0, 200))
        cols = draw(st.sampled_from([63, 64, 65, 128, 129]) | st.integers(0, 200))
    else:
        rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["zero", "full-rank", "low-rank", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = min(rows, cols)
    if kind == "zero":
        mat = np.zeros((rows, cols), dtype=np.int64)
    elif kind == "full-rank":  # a unit triangular block, bordered by random entries, rows and columns permuted
        mat = rng.integers(0, p, size=(rows, cols))
        mat[:small, :small] = np.triu(mat[:small, :small], 1) + np.eye(small, dtype=np.int64)
        mat[small:, :] = rng.integers(0, p, size=(rows - small, small)) @ mat[:small] % p
        mat = mat[rng.permutation(rows)][:, rng.permutation(cols)]
    elif kind == "low-rank":
        rank = draw(st.integers(0, small))
        mat = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols))
    else:
        mat = rng.integers(0, p, size=(rows, cols))
    return p, mat + p * rng.integers(-3, 4, size=mat.shape)


@settings(max_examples=600)
@given(_elimination_cases())
def test_rref_matches_eager_elimination(case):
    p, mat = case
    rr, pivots = rref_mod_p(mat, p)
    expected, expected_pivots = eager_rref_mod_p(mat, p)
    assert rr.dtype == np.int64 and np.array_equal(rr, expected) and pivots == expected_pivots


def test_rref_mod_p_at_p2_reads_bool_uint8_and_negative_inputs_without_writing_them():
    rng = np.random.default_rng(5)
    base = rng.integers(-9, 10, size=(40, 130))
    inputs = [
        base % 2 == 1,
        rng.integers(0, 256, size=(40, 130)).astype(np.uint8),
        base,
        base.T[::3],  # a strided view
    ]
    for mat in inputs:
        before = mat.copy()
        mat.flags.writeable = False  # a write raises
        rr, pivots = rref_mod_p(mat, 2)
        expected, expected_pivots = eager_rref_mod_p(mat.astype(np.int64), 2)
        assert rr.dtype == np.int64 and np.array_equal(rr, expected) and pivots == expected_pivots
        assert mat.dtype == before.dtype and np.array_equal(mat, before)


@pytest.mark.parametrize("p", [3, 5])
def test_rref_mod_p_above_p2_reads_bool_uint8_and_negative_inputs_without_writing_them(p):
    rng = np.random.default_rng(p)
    base = rng.integers(-9, 10, size=(40, 130))
    inputs = [
        base % 2 == 1,
        rng.integers(0, 256, size=(40, 130)).astype(np.uint8),
        base,
        base.T[::3],  # a strided view
    ]
    for mat in inputs:
        before = mat.copy()
        mat.flags.writeable = False  # a write raises
        rr, pivots = rref_mod_p(mat, p)
        expected, expected_pivots = eager_rref_mod_p(mat.astype(np.int64), p)
        assert rr.dtype == np.int64 and np.array_equal(rr, expected) and pivots == expected_pivots
        assert np.array_equal(nullspace_mod_p(mat, p), scalar_nullspace(mat.astype(np.int64), p))
        assert rank_mod_p(mat, p) == len(pivots)
        assert mat.dtype == before.dtype and np.array_equal(mat, before)


@pytest.mark.parametrize("p, digits", [(13, np.uint8), (251, np.uint16), (65521, np.uint32), (2**31 - 1, np.uint64)])
def test_rref_and_nullspace_mod_p_hold_every_prime_whose_square_fits_int64(p, digits):
    # one prime per digit type (the narrowest that holds p^2 - 1): entries of both signs up to 2^40, and bytes,
    # whose own type may not hold p
    rng = np.random.default_rng(p % 1000)
    big = 2**40
    low = np.array(rng.integers(0, p, size=(7, 3)), dtype=object) @ rng.integers(0, p, size=(3, 10)) % p  # rank <= 3
    mats = [
        rng.integers(-big, big + 1, size=(6, 9)),
        rng.integers(-big, big + 1, size=(9, 6)),
        low.astype(np.int64) + p * rng.integers(-(big // p), big // p, size=low.shape),
    ]
    assert all(np.abs(mat).max() <= big and (mat < 0).any() and (mat >= p).any() for mat in mats)
    mats.append(rng.integers(0, 256, size=(5, 8)).astype(np.uint8))
    for mat in mats:
        assert linalg._rref(mat, p)[0].dtype == digits
        rr, pivots = rref_mod_p(mat, p)
        expected, expected_pivots = eager_rref_mod_p(mat, p)
        assert rr.dtype == np.int64 and np.array_equal(rr, expected) and pivots == expected_pivots
        kernel = nullspace_mod_p(mat, p)
        assert kernel.dtype == np.int64 and np.array_equal(kernel, scalar_nullspace(mat, p))
    assert len(rref_mod_p(mats[2], p)[1]) <= 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_mod_p_refuses_arrays_of_more_than_two_dimensions(p):
    for shape in ((2, 3, 4), (1, 1, 5), (0, 2, 2)):
        for eliminate in (rref_mod_p, rank_mod_p, nullspace_mod_p):
            with pytest.raises(ParameterError, match="not a matrix"):
                eliminate(np.ones(shape, dtype=np.int64), p)
    for mat, shape in ((np.int64(p + 1), (1, 1)), (np.array([0, p + 2, -1]), (1, 3)), (np.zeros(0, dtype=np.int64), (0, 0))):
        rr, pivots = rref_mod_p(mat, p)  # 0-d and 1-d inputs are one row; an empty one is no matrix at all
        expected, expected_pivots = eager_rref_mod_p(mat, p)
        assert np.array_equal(rr, expected) and pivots == expected_pivots
        assert rr.shape == (len(pivots), shape[1]) and len(pivots) == min(shape)


def _walk_and_swap_cases(p, rng):
    """Named matrices mod p that steer the eliminations through idle words, dead columns, dependent rows, swaps and the final sort."""
    gap = rng.integers(0, p, size=(90, 200))
    gap[:, 64:128] = 0  # an all-zero word between live ones
    dead = rng.integers(0, p, size=(40, 100))
    dead[:, 5] = (dead[:, 2] + dead[:, 3]) % p  # live when its word starts, but the pivots at 2 and 3 clear it
    last = rng.integers(0, p, size=(130, 150))
    last[:, 0] = 0
    last[-1, 0] = 1  # column 0's only candidate is the last row
    staircase = np.flipud(np.triu(rng.integers(0, p, size=(130, 130)), 1) + np.diag(rng.integers(1, p, size=130)))
    summed = rng.integers(0, p, size=(60, 150))
    summed[40] = (summed[3] + summed[17]) % p  # zero once the rows above it have taken their pivots
    duplicated = np.zeros((90, 100), dtype=np.int64)
    duplicated[0::3] = duplicated[2::3] = rng.integers(0, p, size=(30, 100))  # each row twice, around an independent one
    duplicated[1::3] = rng.integers(0, p, size=(30, 100))
    late = rng.integers(0, p, size=(50, 200))
    late[0, :195] = 0
    late[0, 195] = 1  # the first row's pivot is in the last word, the later rows' in word 0
    return {
        "gap": gap,
        "dead": dead,
        "last": last,
        "staircase": staircase,
        "tall": rng.integers(0, p, size=(200, 70)),
        "summed": summed,
        "duplicated": duplicated,
        "late": late,
    }


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_walks_live_columns_and_swaps_rows_by_copies(p):
    # each case against the eager elimination, its rank against its pivots and its kernel against back-substitution
    cases = _walk_and_swap_cases(p, np.random.default_rng(32 + p))
    for name, mat in cases.items():
        rr, pivots = rref_mod_p(mat, p)
        expected, expected_pivots = eager_rref_mod_p(mat, p)
        assert rr.dtype == np.int64 and np.array_equal(rr, expected) and pivots == expected_pivots, name
        assert rank_mod_p(mat, p) == len(pivots), name
        kernel = nullspace_mod_p(mat, p)
        assert kernel.dtype == np.int64 and np.array_equal(kernel, scalar_nullspace(mat, p)), name
    # the premises of the cases: no pivot in the zero word, column 5 live yet no pivot, swaps from the last row down
    gap_pivots = rref_mod_p(cases["gap"], p)[1]
    assert not any(64 <= c < 128 for c in gap_pivots) and max(gap_pivots) >= 128
    dead_pivots = rref_mod_p(cases["dead"], p)[1]
    assert cases["dead"][:, 5].any() and {2, 3} <= set(dead_pivots) and 5 not in dead_pivots
    assert rref_mod_p(cases["last"], p)[1][0] == 0 and rref_mod_p(cases["staircase"], p)[1] == list(range(130))
    assert len(rref_mod_p(cases["tall"], p)[1]) == 70
    # a nonzero row in the span of the rows above it, every duplicate dependent, and the first row sorted to the bottom
    summed = cases["summed"]
    assert summed[40].any() and rank_mod_p(summed[:41], p) == rank_mod_p(summed[:40], p) == 40
    duplicated = cases["duplicated"]
    assert np.array_equal(duplicated[0::3], duplicated[2::3])
    assert rank_mod_p(duplicated, p) == rank_mod_p(np.delete(duplicated, np.s_[2::3], axis=0), p) == 60
    late_pivots = rref_mod_p(cases["late"], p)[1]
    assert late_pivots[0] < 64 and late_pivots[-1] == 195 and len(late_pivots) == 50


def test_rref_of_the_rate_i23_kernel_block_matches_eager_elimination(monkeypatch):
    # the (448, 512) block of rate-I23 (I(2,3) at D = 896), as message_space's own gather builds it
    blocks = []
    monkeypatch.setattr(codecore, "nullspace_mod_p", lambda mat, p: blocks.append(mat) or nullspace_mod_p(mat, p))
    inst = build_instance(InstanceConfig("I", 2, 3, D=896))
    inst.message_space()
    (block,) = blocks
    rr, pivots = rref_mod_p(block, 2)
    expected, expected_pivots = eager_rref_mod_p(block, 2)
    assert block.shape == (448, 512) and len(pivots) == 375
    assert np.array_equal(rr, expected) and pivots == expected_pivots
    assert np.array_equal(nullspace_mod_p(block, 2), scalar_nullspace(block, 2))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_subspace_reduce_matches_pivot_loop(p):
    k = 6
    ctx = build_field(p, k)
    rng = np.random.default_rng(p)
    digits = rng.integers(0, 3 * p, size=(4, 5, k))  # unreduced digits, as reduce reads them mod p
    spans = [mat for mat in _mod_p_matrices(p, rng) if mat.shape[1] == k]  # zero, full rank, rank 4
    for vectors in [np.zeros((0, k), dtype=np.int64)] + spans:
        space = FpSubspace(ctx, vectors)
        rr, pivots = rref_mod_p(space.basis, p)
        for x in (digits, digits[0, 0], digits[:0]):
            assert np.array_equal(space.reduce(x), row_reduce_against(x, rr, pivots, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspace_is_the_rref_of_its_spanning_rows(p):
    # unreduced, repeated and dependent spanning rows: the basis is their RREF, whatever rows span it
    k = 4
    ctx = build_field(p, k)
    rng = np.random.default_rng(p)
    free = rng.integers(-2 * p, 3 * p, size=(3, k))
    zero = np.zeros((1, k), dtype=np.int64)
    everything = base_p_digits(np.arange(ctx.order), p, k)
    repeated = np.vstack([free[:2], free[:1], free[0] + (p - 1) * free[1], zero])
    for rows in (zero[:0], zero, free[:1], repeated, np.vstack([free, free.sum(axis=0)])):
        space = FpSubspace(ctx, rows)
        expected, _ = eager_rref_mod_p(rows, p)
        assert np.array_equal(space.basis, expected) and space.basis.shape == (space.dim, k)
        points = []
        for digits in base_p_digits(np.arange(space.size), p, space.dim).tolist():  # digit order over the basis
            point = np.zeros(k, dtype=np.int64)
            for c, row in zip(digits, space.basis):
                point += c * row
            points.append(tuple((point % p).tolist()))
        assert [tuple(x) for x in space.points().tolist()] == points
        where = {x: i for i, x in enumerate(points)}
        assert space.index_of(everything).tolist() == [where.get(tuple(x), -1) for x in everything.tolist()]


def _fast_degrees(rep):
    """(side, index, interpolant degree or None) for every vertex, read off the report's degree array."""
    sides = (("left", rep.vertices[: rep.n_left]), ("right", rep.vertices[rep.n_left :]))
    return [(side, i, None if d < 0 else d) for side, degrees in sides for i, d in enumerate(degrees.tolist())]


def _basis_words(inst):
    return encode_basis_digits(inst.ambient, inst.message_space().coeffs, inst.omega)


def _random_word(inst, rng):
    return inst.ambient.digit_rows([inst.ambient.from_int(int(v)) for v in rng.integers(0, inst.ambient.order, inst.n)])


@pytest.mark.parametrize("p,k", [(2, 1), (2, 6), (3, 4), (5, 3)])
def test_mul_matrix_matches_scalar_products(p, k):
    ctx = build_field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    for x_code, y_code in rng.integers(0, ctx.order, size=(20, 2)):
        x, y = ctx.from_int(int(x_code)), ctx.from_int(int(y_code))
        got = np.array(y.coeffs) @ product_matrices(ctx, np.array(x.coeffs)) % p
        assert tuple(int(c) for c in got) == (x * y).coeffs


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 6), (2, 21)])
def test_field_products_match_int64_oracles(monkeypatch, p, k):
    # F_4, F_8, F_9, F_25, F_27, F_64 and F_2^21, with every product in float64 (0) or in int64;
    # a product matrix is the transpose of the oracle's multiplication matrix
    ctx = build_field(p, k)
    x, y = np.random.default_rng(p * 100 + k).integers(0, p, size=(2, 3, 40, k))
    for int64_work in (0, 1 << 40):
        monkeypatch.setattr(linalg, "INT64_PRODUCT_WORK", int64_work)
        mats = product_matrices(ctx, x)
        assert mats.dtype == np.int64 and np.array_equal(mats, int64_mul_matrix(ctx, x).swapaxes(-1, -2))
        for a in (x, x[:, :1]):  # 40 rows of both, and one row of a against 40 of b
            products = mul_rows(ctx, a, y)
            assert products.dtype == np.int64 and np.array_equal(products, int64_mul_rows(ctx, a, y))
        for D in (0, 1, 2, 5, 64):
            assert np.array_equal(power_table(ctx, x[0], D), einsum_power_tensor(ctx, x[0], D))


def test_local_degrees_match_scalar_oracle_on_basis(inst1_p2):
    inst = inst1_p2
    for cw in _basis_words(inst):
        rep = check_local_rs(inst.ambient, cw, inst.local_maps, inst.config.r)
        assert _fast_degrees(rep) == scalar_vertex_degrees(inst.ambient, cw, inst.graph, inst.omega)


def test_local_degrees_match_scalar_oracle_on_every_schur_pair(inst1_p2):
    inst = inst1_p2
    words = _basis_words(inst)
    for i, j in itertools.combinations(range(len(words)), 2):
        prod = schur_product(inst.ambient, words[i], words[j])
        pairs = zip(inst.ambient.elements_of(words[i]), inst.ambient.elements_of(words[j]))
        assert inst.ambient.elements_of(prod) == tuple(a * b for a, b in pairs)
        rep = schur_check(inst.ambient, words[i], words[j], inst.local_maps, inst.config.r)
        assert _fast_degrees(rep) == scalar_vertex_degrees(inst.ambient, prod, inst.graph, inst.omega)
        assert rep.all_ok


def test_local_degrees_match_scalar_oracle_on_random_words(inst1_p2):
    inst = inst1_p2
    rng = np.random.default_rng(11)
    for _ in range(20):
        cw = _random_word(inst, rng)
        rep = check_local_rs(inst.ambient, cw, inst.local_maps, inst.config.r)
        assert _fast_degrees(rep) == scalar_vertex_degrees(inst.ambient, cw, inst.graph, inst.omega)


@pytest.mark.parametrize("name", ["inst2_p2", "inst1_p3"])
def test_local_degrees_match_scalar_oracle_on_larger_rungs(name, request):
    inst = request.getfixturevalue(name)
    words = _basis_words(inst)
    for cw in (words[0], schur_product(inst.ambient, words[1], words[-1])):
        rep = check_local_rs(inst.ambient, cw, inst.local_maps, inst.config.r)
        assert _fast_degrees(rep) == scalar_vertex_degrees(inst.ambient, cw, inst.graph, inst.omega)


@pytest.mark.parametrize(
    "config",
    [("I", 2, 2, None), ("II", 2, 2, Fraction(1)), ("I", 3, 2, None), ("I", 5, 2, None), ("I", 2, 3, None)],
    ids=["I22", "II22", "I32", "I52", "I23"],
)
def test_side_maps_match_scalar_lagrange_maps(config):
    # V^-1 from one elimination equals the map built one interpolation at a time
    inst = build_instance(InstanceConfig(config[0], config[1], config[2], gamma=config[3]))
    maps = inst.local_maps
    slow = scalar_side_coeff_maps(inst.ambient, inst.graph, inst.omega)
    for side in ("left", "right"):
        assert np.array_equal(maps[side].coeff_map, slow[side])


@lru_cache(maxsize=None)
def _local_fixture(name):
    """An instance and its basis codewords: I(2,2) at D = n, II(2,2) at the benchmark's D = 96."""
    config = {"I22": InstanceConfig("I", 2, 2), "II22": InstanceConfig("II", 2, 2, gamma=Fraction(1), D=96)}[name]
    inst = build_instance(config)
    return inst, _basis_words(inst)


def _drawn_word(name, combination, rng):
    """A random F-combination of the basis codewords, or a random word."""
    inst, words = _local_fixture(name)
    ctx = inst.ambient
    if combination:
        scalars = rng.integers(0, ctx.p, size=(len(words), 1, ctx.k))
        return mul_rows(ctx, scalars, words).sum(axis=0) % ctx.p
    return rng.integers(0, ctx.p, size=words.shape[1:])


@pytest.mark.parametrize("name", ["I22", "II22"])
@settings(max_examples=24)  # the scalar oracle takes about 0.2 s per II(2,2) word
@given(combination=st.booleans(), doubled=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_local_degrees_match_scalar_oracle_property(name, combination, doubled, seed):
    # doubled checks a Schur product of two drawn words against 2 * the local bound
    inst, _ = _local_fixture(name)
    ctx, rng = inst.ambient, np.random.default_rng(seed)
    cw = _drawn_word(name, combination, rng)
    if doubled:
        cw = schur_product(ctx, cw, _drawn_word(name, combination, rng))
    rep = check_local_rs(ctx, cw, inst.local_maps, inst.config.r, doubled=doubled)
    slow = scalar_vertex_degrees(ctx, cw, inst.graph, inst.omega)
    assert _fast_degrees(rep) == slow
    allowed = {side: (2 if doubled else 1) * b["max_allowed_degree"] for side, b in rep.bounds.items()}
    assert rep.ok.tolist() == [d is None or d <= allowed[side] for side, _, d in slow]
    if combination:
        assert rep.all_ok  # codewords pass the local check, and their Schur products the doubled one


@pytest.mark.parametrize("name", ["I22", "II22"])
@settings(max_examples=12)
@given(combination=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_schur_product_matches_scalar_products_property(name, combination, seed):
    inst, _ = _local_fixture(name)
    ctx, rng = inst.ambient, np.random.default_rng(seed)
    a, b = _drawn_word(name, combination, rng), _drawn_word(name, combination, rng)
    expected = tuple(x * y for x, y in zip(ctx.elements_of(a), ctx.elements_of(b)))
    assert ctx.elements_of(schur_product(ctx, a, b)) == expected


def test_schur_product_on_ii22_codewords_makes_no_fp_matrix_product(monkeypatch):
    # 448 products in F_2^12 take the word path
    inst, words = _local_fixture("II22")
    calls = []
    matmul = gf.matmul_mod_p
    monkeypatch.setattr(gf, "matmul_mod_p", lambda *args: calls.append(1) or matmul(*args))
    product = schur_product(inst.ambient, words[0], words[1])
    assert not calls and np.array_equal(product, int64_mul_rows(inst.ambient, words[0], words[1]))


def test_schur_product_on_ii22_codewords_peaks_below_128_kb():
    # the digit path's (448, 144) int64 outer product and its float64 copy peak at about 1.1 MB
    inst, words = _local_fixture("II22")
    schur_product(inst.ambient, words[0], words[1])  # the context's overflow table is built on first use
    tracemalloc.start()
    schur_product(inst.ambient, words[0], words[1])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 128 << 10


def test_local_maps_are_cached_per_graph(inst1_p2):
    inst = inst1_p2
    cw = _basis_words(inst)[0]
    check_local_rs(inst.ambient, cw, inst.local_maps, inst.config.r)
    maps = inst.local_maps
    check_local_rs(inst.ambient, cw, inst.local_maps, inst.config.r)
    assert inst.local_maps is maps


def test_local_check_rejects_an_unstructured_orbit(inst1_p2):
    inst = inst1_p2
    omega = inst.omega[[-1, *range(1, inst.n - 1), 0]]  # points 0 and n-1 swapped
    zero = np.zeros((inst.n, inst.ambient.k), dtype=np.int64)
    with pytest.raises(ParameterError, match="base set"):
        codecore.local_maps(inst.ambient, inst.graph, omega)
    check_local_rs(inst.ambient, zero, inst.local_maps, inst.config.r)


def _subspace(inst, dims):
    """The span of the first dims basis rows of the instance's message space, with its own constraint report."""
    ms = inst.message_space()
    coeffs = ms.coeffs[:dims]
    return MessageSpace(ms.ctx, ms.D, coeffs, ms.dim_u, ms.dim_v, constraint_report(coeffs, inst.G, inst.H, inst.config.r, ms.D))


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_distance_matches_dfs_oracle_in_both_modes(inst1_p2, dims):
    inst = inst1_p2
    sub = _subspace(inst, dims)
    full = min_distance_exhaustive(CodewordStore(sub, inst.omega))
    prime = min_distance_exhaustive(CodewordStore(sub, inst.omega), budget=2**dims)
    assert (full.mode, prime.mode) == ("full-field", "prime-subcode")
    assert full.value == dfs_min_weight(scalar_tables(sub, inst.omega, prime_only=False), 2)
    assert prime.value == dfs_min_weight(scalar_tables(sub, inst.omega, prime_only=True), 2)


def test_distance_matches_dfs_oracle_at_p3(inst1_p3):
    inst = inst1_p3
    ms = inst.message_space(D=24)
    res = min_distance_exhaustive(CodewordStore(ms, inst.omega))
    assert (res.value, res.mode, res.enumerated) == (639, "prime-subcode", 3**6)
    assert res.value == dfs_min_weight(scalar_tables(ms, inst.omega, prime_only=True), 3)


@pytest.mark.parametrize(
    "p,sizes,k",
    [(2, [2] * 7, 3), (3, [3] * 5, 2), (5, [5, 5, 5], 9), (2, [4, 4, 4], 12)]
    # k digits per coordinate, so k rows in each coordinate's matrix: at p = 2 the word edges of
    # uint8, uint16, uint32, one and two uint64 words, fewer and more rows than generators
    + [(2, [2] * 6, k) for k in (1, 8, 9, 16, 17, 33, 64, 65)],
)
def test_chunked_enumeration_matches_dfs_with_many_prefixes(monkeypatch, p, sizes, k):
    # the generators span prod(sizes) codewords; tiny chunk bounds split every kernel into many chunks
    rng = np.random.default_rng(sum(sizes) + k)
    N = round(math.log(math.prod(sizes), p))
    # half the coordinates lie in the span of a random vector and the top unit vector, so that
    # sums cancel there, or differ in the top digit alone
    u, top = rng.integers(0, p, size=k), np.eye(k, dtype=np.int64)[-1]
    gens = rng.integers(0, p, size=(N, 6, k))
    span = rng.integers(0, p, size=(N, 6, 1)) * u + rng.integers(0, p, size=(N, 6, 1)) * top
    gens = np.where(rng.random((1, 6, 1)) < 0.5, span % p, gens)
    expected = dfs_min_weight([np.stack([x * g % p for x in range(p)]) for g in gens], p)
    for chunk, slab in itertools.product((1, 5, linalg.KERNEL_CHUNK_ENTRIES), (p, linalg.KERNEL_SLAB_CODES)):
        monkeypatch.setattr(linalg, "KERNEL_CHUNK_ENTRIES", chunk)
        monkeypatch.setattr(linalg, "KERNEL_SLAB_CODES", slab)
        assert codecore._min_weight(gens, p) == expected


def _brute_kernel_counts(mats, p):
    """counts[c]: the matrices M with M @ m = 0 mod p, by the product with every m, 2^14 at a time."""
    N = mats.shape[2]
    counts = np.zeros(p**N, dtype=np.int64)
    for lo in range(0, p**N, 1 << 14):
        digits = base_p_digits(np.arange(lo, min(p**N, lo + (1 << 14))), p, N)
        for mat in mats:
            counts[lo : lo + len(digits)] += ~matmul_mod_p(mat % p, digits.T, p).any(axis=0)
    return counts


def _nullspace_kernel_counts(mats, p):
    """counts[c] from every F_p combination of each matrix's nullspace_mod_p basis, one matrix at a time."""
    counts = np.zeros(p ** mats.shape[2], dtype=np.int64)
    for mat in mats:
        basis = nullspace_mod_p(mat, p)
        elements = base_p_digits(np.arange(p ** len(basis)), p, len(basis)) @ basis % p
        counts[digit_codes(elements, p)] += 1  # a kernel's elements are distinct
    return counts


def _slab_counts(mats, p):
    """kernel_counts' slabs, checked to be of one length p^L, the largest power of p up to p^N within KERNEL_SLAB_CODES, and joined."""
    slabs = list(linalg.kernel_counts(mats, p))
    N = mats.shape[2]
    L = max(L for L in range(N + 1) if L == 0 or p**L <= linalg.KERNEL_SLAB_CODES)
    assert [len(counts) for counts in slabs] == [p**L] * p ** (N - L)
    return np.concatenate(slabs)


@pytest.mark.parametrize("p,N", [(p, N) for p in (2, 3, 5) for N in (1, 8, 9, 16, 17) if p**N <= 1 << 19])
def test_kernel_counts_match_brute_force_and_nullspace(monkeypatch, p, N):
    # stacks of zero, random unreduced, rank-deficient and duplicate-row matrices with 1, 12 and 65
    # rows; one element per chunk, a few, a fifth of F_p^N and the default; one code per slab, about
    # sqrt(p^N), p^N / p and the default; and an empty stack
    rng = np.random.default_rng(10 * N + p)
    entries = 1 if p == 2 else N
    chunks = [linalg.KERNEL_CHUNK_ENTRIES, (p**N // 5 + 1) * entries] + ([entries, 7 * entries] if p**N <= 1 << 12 else [])
    slabs = [linalg.KERNEL_SLAB_CODES, p ** (N - 1)] + ([1, p ** (N // 2)] if p**N <= 1 << 8 else [])
    for rows in (1, 12, 65):
        duplicate = rng.integers(0, p, size=(rows, N))
        duplicate[1::2] = duplicate[0]
        mats = np.stack(
            [
                np.zeros((rows, N), dtype=np.int64),
                rng.integers(-2 * p, 2 * p, size=(rows, N)),
                rng.integers(0, p, size=(rows, 2)) @ rng.integers(0, p, size=(2, N)),  # rank at most 2, unreduced
                duplicate,
                rng.integers(0, p, size=(rows, N)),
            ]
        )
        expected = _brute_kernel_counts(mats, p)
        assert np.array_equal(_nullspace_kernel_counts(mats, p), expected)
        for chunk, slab in itertools.product(chunks, slabs):
            monkeypatch.setattr(linalg, "KERNEL_CHUNK_ENTRIES", chunk)
            monkeypatch.setattr(linalg, "KERNEL_SLAB_CODES", slab)
            got = _slab_counts(mats, p)
            assert got.dtype == np.uint8 and np.array_equal(got, expected)
            assert np.array_equal(_slab_counts(mats[:0], p), np.zeros(p**N, dtype=np.uint8))
        monkeypatch.undo()


@pytest.mark.parametrize("p,N,rows", [(2, 26, 20), (3, 15, 11)])
def test_kernel_counts_hold_one_slab_at_a_time(p, N, rows):
    # p^N is 2^26 and 3^15: one uint8 counter per message would take 64 MB and 14 MB.  Kernels of
    # dimension N - rows to N - rows + 4, with free columns below the slab's top digits (zeroed
    # columns, zeroed rows) and above them, some duplicated, against their elements enumerated
    # one matrix at a time
    rng = np.random.default_rng(N)
    mats = rng.integers(0, p, size=(24, rows, N))
    for mat in mats[::2]:
        mat[:, rng.choice(N, size=rng.integers(1, 5), replace=False)] = 0
    for mat in mats[1::3]:
        mat[: rng.integers(0, 5)] = 0
    mats[-4:] = mats[:4]
    codes = []
    for mat in mats:
        basis = nullspace_mod_p(mat, p)
        codes.append(digit_codes(base_p_digits(np.arange(p ** len(basis)), p, len(basis)) @ basis % p, p))
    found, times = np.unique(np.concatenate(codes), return_counts=True)
    L = max(L for L in range(N + 1) if p**L <= linalg.KERNEL_SLAB_CODES)
    tracemalloc.start()
    for i, counts in enumerate(linalg.kernel_counts(mats, p)):
        assert (counts.dtype, len(counts)) == (np.uint8, p**L)
        at = (found >= i * p**L) & (found < (i + 1) * p**L)
        assert np.array_equal(np.flatnonzero(counts), found[at] - i * p**L)
        assert np.array_equal(counts[found[at] - i * p**L], times[at])
        del counts
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert i + 1 == p ** (N - L) > 1
    assert peak < p**N // 4


def test_kernel_counts_refusals_and_counter_width():
    # counters hold the stack's size; a stack must be 3-d, and every code must fit int64, checked
    # when the counter is called, before any slab is counted
    assert _slab_counts(np.zeros((256, 1, 2), dtype=np.int64), 2).tolist() == [256] * 4
    assert _slab_counts(np.zeros((256, 1, 2), dtype=np.int64), 2).dtype == np.uint16
    assert _slab_counts(np.ones((3, 2, 0), dtype=np.int64), 5).tolist() == [3]
    with pytest.raises(ParameterError, match="stack"):
        linalg.kernel_counts(np.zeros((2, 3)), 2)
    with pytest.raises(ParameterError, match="overflow int64"):
        linalg.kernel_counts(np.zeros((1, 1, 63), dtype=np.int64), 2)


def _exhaustive_distance_cases():
    """(fixture, D or None, dims or None) of the instances where the distance is compared with the chunked oracle."""
    return (
        [("inst2_p2", 96, None)]
        + [("inst1_p2", D, None) for D in (10, 20, 30, 40, 48)]
        + [("inst1_p2", None, dims) for dims in (1, 2, 3)]
        + [("inst1_p3", D, None) for D in (24, 40)]
    )


@pytest.mark.parametrize("fixture,D,dims", _exhaustive_distance_cases())
def test_exhaustive_distance_matches_chunked_oracle(request, fixture, D, dims):
    # value, mode and count against the enumeration that weighed every codeword at every coordinate
    inst = request.getfixturevalue(fixture)
    ms = inst.message_space(D=D) if D is not None else _subspace(inst, dims)
    store = CodewordStore(ms, inst.omega)
    res = min_distance_exhaustive(store)
    assert (res.value, res.mode, res.enumerated) == chunked_min_distance(store)
    if fixture == "inst2_p2":  # the benchmark's local-II22 code
        assert (res.value, res.mode, res.enumerated) == (440, "prime-subcode", 2**16)
    if dims is not None:
        assert res.mode == "full-field"


def test_exhaustive_distance_at_a_raised_budget_holds_one_slab(monkeypatch, inst2_p2):
    # II(2,2) at D = 144: 2^25 prime-subcode messages, above the default budget, in 32 slabs of 2^20
    # counters or 512 of 2^16; one uint16 counter per message would take 64 MB
    store = CodewordStore(inst2_p2.message_space(D=144), inst2_p2.omega)
    store(range(store.ms.dim))
    with pytest.raises(BudgetError):
        min_distance_exhaustive(store)
    for slab in (linalg.KERNEL_SLAB_CODES, 1 << 16):
        monkeypatch.setattr(linalg, "KERNEL_SLAB_CODES", slab)
        tracemalloc.start()
        res = min_distance_exhaustive(store, budget=1 << 25)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (res.value, res.mode, res.enumerated) == (438, "prime-subcode", 2**25)
        assert peak < 16 << 20


def test_pack_bits_round_trips_little_endian_at_word_edges():
    # every word width, at its edges, on zero-size shapes and on a transposed (n, k, N) view of a contiguous
    # (N, n, k) stack, as _kernel_bases packs it: the flat conversion equals the one along the last axis
    rng = np.random.default_rng(0)
    shapes = [(0, 0), (0, 70), (3, 0), (0, 4, 65), (2, 3, 1), (5, 63), (5, 64), (5, 65), (2, 3, 129)]
    stack = rng.integers(0, 2, size=(13, 7, 5))
    for word_bits in (8, 16, 32, 64):
        edges = [(5, word_bits - 1), (5, word_bits), (5, word_bits + 1), (2, 3, 2 * word_bits + 1)]
        for bits in [rng.integers(0, 2, size=shape) for shape in shapes + edges] + [stack.transpose(1, 2, 0)]:
            n = bits.shape[-1]
            words = linalg.pack_bits(bits, word_bits)
            assert (words.dtype, words.shape) == (np.dtype(f"<u{word_bits // 8}"), bits.shape[:-1] + (-(-n // word_bits),))
            assert np.array_equal(words, per_row_pack_bits(bits, word_bits))
            for j in range(n):  # entry j is bit j % word_bits of word j // word_bits
                bit = (words[..., j // word_bits] >> words.dtype.type(j % word_bits)) & words.dtype.type(1)
                assert np.array_equal(bit, bits[..., j])
            unpacked = linalg.unpack_bits(words, n)
            assert unpacked.dtype == np.uint8 and np.array_equal(unpacked, bits)
            assert np.array_equal(unpacked, per_row_unpack_bits(words, n))
            assert np.array_equal(linalg.unpack_bits(np.repeat(words, 2, axis=-1)[..., ::2], n), bits)  # a strided view
            # entries are read mod 2: bool, unreduced uint8 and negative int64 give the same words
            wide = bits + 2 * rng.integers(-60, 60, size=bits.shape)
            for same in (bits == 1, wide.astype(np.uint8), wide, np.asfortranarray(wide)):
                assert np.array_equal(linalg.pack_bits(same, word_bits), words)


class _RecordingWords(np.ndarray):
    """Packed words that record the size of every gather taken from them."""

    gathers: list[int] = []

    def __getitem__(self, index):
        out = super().__getitem__(index)
        _RecordingWords.gathers.append(out.size)
        return out.view(np.ndarray)


@pytest.mark.parametrize("width", [63, 64, 65, 128, 129])
def test_xor_rows_matches_matmul_mod_p(monkeypatch, width):
    # acc += coeffs @ rows over F_2 on packed rows, against matmul_mod_p: coefficient matrices with
    # no rows or no columns, all zero, sparse with zero, dense and unreduced rows; every gather
    # whole, then one term, three terms and four terms at a time, which split a row's terms
    rng = np.random.default_rng(width)
    rows = rng.integers(0, 2, size=(37, width))
    sparse = rng.integers(0, 2, size=(9, 37)) * (rng.random((9, 37)) < 0.2)
    sparse[2] = 0
    sparse[5] = 1
    sparse[7] = rng.integers(-5, 6, size=37)
    cases = [(sparse, rows), (np.zeros((0, 37), dtype=np.int64), rows), (np.zeros((4, 37), dtype=np.int64), rows)]
    cases.append((np.zeros((3, 0), dtype=np.int64), rows[:0]))
    words = -(-width // 64)
    for gather in (linalg.XOR_GATHER_WORDS, words, 3 * words, 5 * words - 1):
        monkeypatch.setattr(linalg, "XOR_GATHER_WORDS", gather)
        for coeffs, right in cases:
            start = rng.integers(0, 2, size=(len(coeffs), width))
            acc = linalg.pack_bits(start)
            _RecordingWords.gathers = []
            linalg.xor_rows(acc, linalg.odd_terms(coeffs), linalg.pack_bits(right).view(_RecordingWords))
            expected = (start + matmul_mod_p(coeffs % 2, right, 2)) % 2
            assert acc.dtype == np.uint64 and np.array_equal(linalg.unpack_bits(acc, width), expected)
            assert sum(_RecordingWords.gathers) == np.count_nonzero(coeffs % 2) * words
            assert max(_RecordingWords.gathers, default=0) <= max(gather, words)


def test_packed_words_at_p2_are_the_smallest_that_hold_k_bits():
    widths = [(1, np.uint8, 1), (8, np.uint8, 1), (9, np.uint16, 1), (17, np.uint32, 1), (33, np.uint64, 1), (65, np.uint64, 2)]
    for k, dtype, words in widths:
        packed = linalg.pack_bits(np.ones((3, 5, k), dtype=np.int64), linalg.word_width(k))
        assert (packed.dtype, packed.shape) == (dtype, (3, 5, words))


def _assert_sigma2_matches_oracle(G, H, S, ambient):
    fast, slow = sigma2_exact(G, GroupA(S, H)), scalar_sigma2_exact(G, H, S, ambient)
    assert (fast.lambda_max, fast.value) == (slow.lambda_max, slow.value)
    return fast


def _assert_char_sum_matches_oracle(H, ambient):
    fast, slow = char_sum_max(H), scalar_char_sum_max(H, ambient)
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
    prime_field = TranslationGroup([0, p - 1] + [0] * (p - 2) + [1], ctx)  # the roots of X^p - X
    for d in divisors(ctx.order - 1):
        h = scaling_subgroup(ctx, d)
        _assert_sigma2_matches_oracle(prime_field, h, FpSubspace(ctx, h.elements), ctx)
        _assert_char_sum_matches_oracle(h, ctx)


def test_sigma2_degenerate_one_step_walk_matches_oracle(inst1_p2):
    trivial_h = ScalingGroup(inst1_p2.ambient, inst1_p2.ambient.one().coeffs, 1)
    g = inst1_p2.G
    assert _assert_sigma2_matches_oracle(g, trivial_h, g.points, inst1_p2.ambient).value == 0.0
    assert _assert_sigma2_matches_oracle(g, trivial_h, inst1_p2.S, inst1_p2.ambient).value == 1.0


def test_scan_budget_bounds_points_visited(inst1_p2):
    # I(2,2): |S| = 16 gives 15 nonzero classes mod S^perp, span(H) = F_4 gives 3
    inst = inst1_p2
    with pytest.raises(BudgetError, match="15 points"):
        sigma2_exact(inst.G, inst.A, field_budget=14)
    assert sigma2_exact(inst.G, inst.A, field_budget=15).lambda_max == Fraction(1, 3)
    with pytest.raises(BudgetError, match="3 points"):
        char_sum_max(inst.H, field_budget=2)
    assert char_sum_max(inst.H, field_budget=3).value == 1.0


def test_sigma2_exact_rejects_a_space_not_closed_under_h(inst1_p2):
    # A refuses an S that H does not fix, and sigma2_exact an A whose S misses G:
    # a line of S outside G is closed under the trivial H but does not contain G
    inst = inst1_p2
    with pytest.raises(ParameterError, match="not invariant"):
        GroupA(inst.G.points, inst.H)
    trivial_h = ScalingGroup(inst.ambient, inst.ambient.one().coeffs, 1)
    outside = inst.S.points()[np.argmax(inst.G.points.index_of(inst.S.points()) < 0)]
    with pytest.raises(ParameterError, match="contain G"):
        sigma2_exact(inst.G, GroupA(FpSubspace(inst.ambient, outside[None]), trivial_h))


def test_spectrum_section_computed_on_i23():
    # F = 2^21: the quotient scans visit 511 and 7 points, not 2^21
    sec = spectrum_section(build_instance(InstanceConfig("I", 2, 3)))
    assert sec["status"] == "computed"
    assert sec["lambda_max"] == "3/7"
    assert sec["M"] == 1.0
    assert all(sec["checks"].values()) and sec["ok"]


X4_X = [0, 1, 0, 0, 1]  # X^4 + X: its roots are F_4 inside F_64
X4_X2_X = [0, 1, 1, 0, 1]  # X^4 + X^2 + X = X (X^3 + X + 1): its roots lie in F_8 inside F_64
X3_MINUS_X = [0, 2, 0, 1]  # X^3 - X over F_3: its roots are F_3


# gens: the F_p coefficients of the polynomial whose roots form G
@pytest.mark.parametrize(
    "p,k,gens,h_order,r,D",
    [
        (2, 6, X4_X, 1, Fraction(1, 4), 8),
        (2, 6, X4_X, 7, Fraction(1, 2), 48),
        (2, 6, X4_X2_X, 9, Fraction(3, 4), 48),
        (3, 3, X3_MINUS_X, 13, Fraction(1, 2), 26),
        (2, 6, X4_X2_X, 7, Fraction(1, 2), 260),  # D > 256: the path has no size limit
    ],
)
def test_generic_message_space_matches_scalar_oracle(p, k, gens, h_order, r, D):
    ctx = build_field(p, k)
    G = TranslationGroup(gens, ctx)
    g = row_poly(ctx, G.g)
    assert g == translation_invariant_poly(G.points)
    assert g.int_coeffs() == gens
    H = scaling_subgroup(ctx, h_order)
    ms = message_space(G, H, r, D)
    assert ms.coeffs.ndim == 2 and ms.verification["all_ok"]
    # the field elimination of the oracle spans the same F_p space
    oracle = [b.int_coeffs() for b in scalar_message_space_generic(G, H, r, D)]
    oracle_rows = np.array([b + [0] * (D - len(b)) for b in oracle], dtype=np.int64).reshape(len(oracle), D)
    assert np.array_equal(rref_mod_p(oracle_rows, p)[0], ms.coeffs)
    basis = [row_poly(ctx, row) for row in ms.coeffs]
    # the verification's per-row base degrees are those of the scalar expansion
    checks = ms.verification["checks"]
    x_h = scaling_invariant_poly(ctx, H.order)
    for name, u in (("translation_base_degree", g), ("scaling_base_degree", x_h)):
        assert checks[name][0].tolist() == [base_degree(b, u) for b in basis]


def _fp_base_degrees(ms, u_ints, p):
    """Per-row base degrees of a prime-field basis by the scalar F_p expansion, -1 for a zero row."""
    degrees = [max_digit_degree(row, u_ints, p) for row in ms.coeffs]
    return [-1 if d == float("-inf") else d for d in degrees]


@pytest.mark.parametrize("name", ["rate-I23", "inst1_p3", "inst2_p2"])
def test_base_degrees_match_scalar_oracle_on_full_bases(name, request):
    # rate-I23 is the benchmark's 137 x 896 basis; the fixtures are at D = n
    if name == "rate-I23":
        inst = build_instance(InstanceConfig("I", 2, 3, D=896))
    else:
        inst = request.getfixturevalue(name)
    ms, p = inst.message_space(), inst.ambient.p
    checks = ms.verification["checks"]
    assert ms.coeffs.ndim == 2 and ms.D == inst.D
    assert checks["translation_base_degree"][0].tolist() == _fp_base_degrees(ms, inst.G.g, p)
    assert checks["scaling_base_degree"][0].tolist() == _fp_base_degrees(ms, [0] * inst.H.order + [1], p)


@st.composite
def _expansion_cases(draw):
    """Rows and a monic divisor u over F_2, F_3, F_4 or F_9, with c = 1 or c = k digits.

    The kernel takes each row as its c digit polynomials.

    u has F_p coefficients.  Rows are either arbitrary or built as
    sum_i d_i u^i from digits d_i of a drawn degree below deg u, so that a
    wrong digit would show in the largest digit degree.
    """
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    ctx = build_field(p, k)
    c = draw(st.sampled_from(sorted({1, k})))
    degree = draw(st.integers(1, 6))
    low = 1 if draw(st.booleans()) else 0  # 1: every lower term of u is nonzero
    u = draw(st.lists(st.integers(low, p - 1), min_size=degree, max_size=degree)) + [1]
    n_rows = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rows = draw(arrays(np.int64, (n_rows, draw(st.integers(0, 40)), c), elements=st.integers(0, p - 1)))
    else:
        shape = (n_rows, draw(st.integers(0, 7)), draw(st.integers(1, degree)), c)
        digits = draw(arrays(np.int64, shape, elements=st.integers(0, p - 1)))
        u_poly = Poly.from_ints(ctx, u)
        polys = [BaseUExpansion(u_poly, tuple(row_poly(ctx, d) for d in row)).reconstruct() for row in digits]
        rows = np.zeros((n_rows, max([len(f.coeffs) for f in polys] + [0]), c), dtype=np.int64)
        for row, f in zip(rows, polys):
            row[: len(f.coeffs)] = poly_digits(f)[:, :c]
    rows[draw(arrays(np.bool_, n_rows))] = 0
    return ctx, u, rows


@settings(max_examples=400)
@given(_expansion_cases())
def test_base_degrees_match_scalar_expansion(case):
    ctx, u, rows = case
    n_rows, length, c = rows.shape
    digit_polys = rows.transpose(0, 2, 1).reshape(n_rows * c, length)
    got = fppoly.expansion_degrees(digit_polys, u, ctx.p).reshape(n_rows, c).max(axis=1)
    u_poly = Poly.from_ints(ctx, u)
    expected = [base_degree(row_poly(ctx, row), u_poly) for row in rows]
    assert got.tolist() == [-1 if d == float("-inf") else d for d in expected]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("lower", [(), (0, 1, 1), (1, 1, 0, 2, 1), (0, 0, 0, 1)])  # none; like g; a constant term; a gap
def test_expansion_degrees_match_synthetic_division(monkeypatch, p, lower):
    rng = np.random.default_rng(p)
    u = [c % p for c in lower] + [0] * (5 - len(lower)) + [1]  # u's coefficients below X^5 are lower
    # L = 0, L < deg u, L a multiple and not, many chunks; then digit widths 130, 130 and 325
    # that end past a 64-bit word, cut by chunks of 70 rows that split a word of coefficients
    for length in (0, 1, 4, 5, 6, 13, 40, 67, 128, 129, 321):
        rows = rng.integers(0, p, size=(7, length))
        rows[[2, 5]] = 0  # zero rows
        rows[6, length // 2 :] = 0
        expected = synthetic_expansion_degrees(rows, u, p)
        width = -(-length // 5) * 5
        for chunk_rows in (None, 1, 3, 7, 70):  # the default, then rows of the digit matrix per chunk
            if chunk_rows:
                monkeypatch.setattr(fppoly, "EXPANSION_CHUNK_ENTRIES", chunk_rows * width)
            got = fppoly.expansion_degrees(rows, u, p)
            assert got.dtype == np.int64 and np.array_equal(got, expected)
        monkeypatch.undo()
    assert fppoly.expansion_degrees(np.zeros((0, 9), dtype=np.int64), u, p).shape == (0,)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("u", [[0, 1, 1, 0, 0, 1], [0, 0, 0, 0, 0, 1]], ids=["like-g", "power"])
def test_expansion_degrees_read_narrow_bool_and_negative_rows(p, u):
    # the int64 degrees of int64 rows, from the same residues written as uint8, int8 and int64 below 0, and as bool
    rng = np.random.default_rng(p)
    rows = rng.integers(0, p, size=(9, 131))
    rows[[2, 7]] = 0  # zero rows
    bits = rows % 2 == 1
    for values, variants in (
        (rows, [rows.astype(np.uint8), (rows - p).astype(np.int8), rows - p * rng.integers(1, 4, size=rows.shape)]),
        (bits.astype(np.int64), [bits, bits.astype(np.uint8)]),
    ):
        expected = synthetic_expansion_degrees(values, u, p)
        assert expected[2] == expected[7] == -1 and expected.max() > 0
        for rows_in in [values, *variants]:
            got = fppoly.expansion_degrees(rows_in, u, p)
            assert got.dtype == np.int64 and np.array_equal(got, expected), rows_in.dtype


@pytest.mark.parametrize("name", ["inst1_p2", "inst2_p2", "I23", "inst1_p3"])
def test_message_space_at_p2_matches_the_matmul_product(name, request):
    # the kernel of the base-g digit map against U's spanning rows times their kernel, basis bytes and all
    inst = build_instance(InstanceConfig("I", 2, 3)) if name == "I23" else request.getfixturevalue(name)
    lengths = [D for D in (8, 26, 48, 260, 896) if D <= inst.n]
    for D, r in itertools.product(lengths, [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]):
        ms = inst.message_space(r=r, D=D)
        expected = matmul_message_basis(inst.G, inst.H, r, D)
        assert ms.coeffs.dtype == np.int64 and ms.coeffs.shape == expected.shape
        assert ms.coeffs.tobytes() == expected.tobytes()
        assert ms.dim_u == len(_u_row_pairs(inst.G.size, max_degree_below(r * inst.G.size), D))
        assert ms.dim_v == D - sum(t % inst.H.order > max_degree_below(r * inst.H.order) for t in range(D))


@pytest.mark.parametrize("p", [2, 3, 5, 13, 17])
def test_digit_chunks_rows_are_the_base_digits_of_monomials(monkeypatch, p):
    # u has a constant term and a gap, and its top lower term X^3 makes step 2; chunks of 3 rows cross every block edge.
    # A step's sums reach (p - 1)(1 + 3(p - 1)) before their reduction: 444 and 784 at p = 13 and 17 need uint16
    u = [1, 0, p - 1, 1, 0, 1]
    monkeypatch.setattr(fppoly, "EXPANSION_CHUNK_ENTRIES", 3 * 30)
    rows, seen = [], []
    for lo, chunk in fppoly.digit_chunks(u, 28, p):
        assert chunk.shape == (min(3, 28 - lo), 30) and chunk.dtype == (np.uint16 if p > 7 else np.uint8)
        seen.append(lo)
        rows.extend(chunk.copy())  # the next chunk overwrites this one
    assert seen == list(range(0, 28, 3))
    for t, row in enumerate(rows):
        digits = np.zeros(30, dtype=np.int64)
        for j, d in enumerate(base_digits([0] * t + [1], u, p)):
            digits[5 * j : 5 * j + len(d)] = d
        assert row.tolist() == digits.tolist()


@pytest.mark.parametrize(
    "name,digest",
    [
        ("inst1_p3", "f78db4dbb1af9b0997de0ad6b1b277c0a4374202e076affb30922b1b0e867f7e"),
        ("inst2_p2", "dea90e39f6a55d3050e76cd1640341901fbc62d73cf4c5178166c97568404906"),
    ],
)
def test_message_space_basis_at_full_length_is_pinned(name, digest, request):
    # the int64 bytes of the basis at D = n, as the eager elimination and synthetic division computed it
    inst = request.getfixturevalue(name)
    ms = inst.message_space()
    assert ms.D == inst.n
    assert hashlib.sha256(ms.coeffs.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("fixture", ["local-II22", "generic-F64"])
def test_encode_basis_digits_in_chunks_matches_scalar_encode(monkeypatch, inst2_p2, fixture):
    if fixture == "local-II22":  # the benchmark's sizes: one chunk under the default bound
        ctx, coeffs, omega = inst2_p2.ambient, inst2_p2.message_space(D=96).coeffs, inst2_p2.omega
        assert len(omega) * 96 * 12 <= codecore.ENCODE_CHUNK_ENTRIES
    else:  # the digit polynomials of random field coefficients, on 48 points of F_64
        ctx = build_field(2, 6)
        coeffs = np.random.default_rng(0).integers(0, 2, size=(12, 48, 6)).transpose(0, 2, 1).reshape(72, 48)
        omega = ctx.digit_rows(list(ctx.elements())[5:53])
    whole = encode_basis_digits(ctx, coeffs, omega)
    monkeypatch.setattr(codecore, "ENCODE_CHUNK_ENTRIES", 5 * coeffs.shape[1] * ctx.k)  # five points per chunk
    assert np.array_equal(encode_basis_digits(ctx, coeffs, omega), whole)
    for b in (0, len(coeffs) - 1):
        assert np.array_equal(whole[b], scalar_encode(row_poly(ctx, coeffs[b]), omega))


def _points(ctx, n, seed):
    """n field elements as an (n, k) digit array, 0 among them, distinct where the field has n elements."""
    rng = np.random.default_rng(seed)
    if ctx.order > 1 << 20:  # too many codes to draw from: random digit rows, distinct with overwhelming odds
        digits = rng.integers(0, ctx.p, size=(n, ctx.k))
    else:
        digits = base_p_digits(rng.choice(ctx.order, size=n, replace=ctx.order < n), ctx.p, ctx.k)
    digits[n // 3] = 0
    return digits


@pytest.mark.parametrize("p,k", [(2, 1), (2, 6), (2, 8), (2, 9), (2, 16), (2, 17), (2, 32), (2, 33), (2, 64), (2, 65), (3, 3), (5, 2)])
def test_encode_basis_digits_matches_einsum_oracle(monkeypatch, p, k):
    # the power sums against the D-step int64 mat-vec and contraction, in chunks of one, three and
    # five points and the default; the power table itself too.  At p = 2 they run on words of 8, 16,
    # 32 and 64 bits up to k = 64 and on digits at k = 65; 0 is a point, and 0^0 = 1
    ctx = build_field(p, k)
    omega = _points(ctx, 23, p)
    rng = np.random.default_rng(k)
    for D in (0, 1, 2, 3, 5, 8, 96):
        coeffs = rng.integers(0, p, size=(4, D))
        expected = einsum_encode_basis_digits(ctx, coeffs, omega)
        assert np.array_equal(power_table(ctx, omega, D), einsum_power_tensor(ctx, omega, D))
        for points in (1, 3, 5, None):
            if points is not None:
                monkeypatch.setattr(codecore, "ENCODE_CHUNK_ENTRIES", points * max(D, 1) * k)
            got = encode_basis_digits(ctx, coeffs, omega)
            assert got.dtype == np.min_scalar_type(p - 1) and np.array_equal(got, expected)
            monkeypatch.undo()


@pytest.mark.parametrize("p,k,on_words", [(2, 6, True), (2, 64, True), (3, 3, False)])
def test_encode_basis_digits_sums_on_words_at_p2(monkeypatch, p, k, on_words):
    # at p = 2 and k <= 64 the power sums run on words, with no F_p product; at p = 3 on digits
    ctx = build_field(p, k)
    omega = _points(ctx, 9, p)
    coeffs = np.random.default_rng(0).integers(0, p, size=(3, 12))
    calls = []
    for module in (gf, codecore):
        monkeypatch.setattr(module, "matmul_mod_p", lambda *args, real=matmul_mod_p: calls.append(1) or real(*args))
    got = encode_basis_digits(ctx, coeffs, omega)
    assert (not calls) == on_words and np.array_equal(got, einsum_encode_basis_digits(ctx, coeffs, omega))


@pytest.mark.parametrize("fixture", ["inst1_p2", "inst1_p3"])
def test_multiples_match_einsum_oracle(request, fixture):
    # a scalar acts on a codeword through its product matrix: F_p and the whole field as multipliers,
    # and the rows' own product matrices, reordered, which are the full-field distance's generators x^a * w
    inst = request.getfixturevalue(fixture)
    ctx = inst.ambient
    rows = encode_basis_digits(ctx, inst.message_space(D=24).coeffs, inst.omega)
    for scalars in (ctx.p, ctx.order):
        multipliers = base_p_digits(np.arange(scalars), ctx.p, ctx.k)
        got = matmul_mod_p(rows[:, None], product_matrices(ctx, multipliers), ctx.p)
        assert got.dtype == np.int64 and np.array_equal(got, einsum_multiples(ctx, rows, multipliers))
    generators = product_matrices(ctx, rows).transpose(0, 2, 1, 3)
    assert generators.dtype == np.int64
    assert np.array_equal(generators, einsum_multiples(ctx, rows, np.eye(ctx.k, dtype=np.int64)))


def _sample_chunk_entries(inst, ms, samples):
    """The SAMPLE_CHUNK_ENTRIES at which min_distance_sampled takes that many samples per chunk."""
    k = inst.ambient.k
    return samples * k * max(inst.n, ms.dim * k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_distance_matches_table_oracle(monkeypatch, inst1_p2, inst1_p3, seed):
    # I(2,2) at D = n: 9000 samples, two draws of the sampler; I(3,2) at D = 24 adds p = 3, in one
    # draw, since the oracle's (samples, n, k) int64 sums grow with n.  The patched bound gives chunks
    # of 13 samples, several per draw
    for inst, D, samples in ((inst1_p2, None, 9000), (inst1_p3, 24, 1000)):
        ms = inst.message_space(D=D)
        expected = table_min_distance_sampled(ms, inst.omega, samples=samples, seed=seed)
        assert min_distance_sampled(CodewordStore(ms, inst.omega), samples=samples, seed=seed) == expected
        monkeypatch.setattr(codecore, "SAMPLE_CHUNK_ENTRIES", _sample_chunk_entries(inst, ms, 13))
        assert min_distance_sampled(CodewordStore(ms, inst.omega), samples=samples, seed=seed) == expected
        monkeypatch.undo()


@pytest.mark.parametrize(
    "fixture,D,samples",
    [
        ("inst1_p2", 24, 9000),
        ("inst1_p2", None, 9000),
        ("inst1_p3", 24, 1000),
        ("inst1_p3", None, 1000),
        ("inst2_p2", 96, 1000),
        ("inst2_p2", None, 1000),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_distance_matches_blocked_oracle(monkeypatch, request, fixture, D, samples, seed):
    # the sampler as it multiplied each chunk by the rebuilt multiples of blocks of basis rows, at the
    # default chunk bound and at one of 300 samples per chunk; on I(2,2) the 9000 samples are two draws
    inst = request.getfixturevalue(fixture)
    store = CodewordStore(inst.message_space(D=D), inst.omega)
    expected = blocked_min_distance_sampled(store, samples=samples, seed=seed)
    assert 1 <= expected <= inst.n
    assert min_distance_sampled(store, samples=samples, seed=seed) == expected
    monkeypatch.setattr(codecore, "SAMPLE_CHUNK_ENTRIES", _sample_chunk_entries(inst, store.ms, 300))
    assert min_distance_sampled(store, samples=samples, seed=seed) == expected


def test_sampled_distance_weighs_every_sample(monkeypatch, inst1_p2):
    # one to seven samples in chunks of two, where the least weight of a few samples moves with each one
    store = inst1_p2.codewords
    monkeypatch.setattr(codecore, "SAMPLE_CHUNK_ENTRIES", _sample_chunk_entries(inst1_p2, store.ms, 2))
    for samples, seed in itertools.product(range(1, 8), range(4)):
        expected = blocked_min_distance_sampled(store, samples=samples, seed=seed)
        assert min_distance_sampled(store, samples=samples, seed=seed) == expected


def test_sampled_distance_memory_is_bounded(inst2_p2):
    # II(2,2) at D = n: a table of all 4096 multiples of one basis codeword is 176 MB, and there are 70
    inst = inst2_p2
    ms = inst.message_space()
    assert (ms.dim, ms.D) == (70, inst.n)
    tracemalloc.start()
    try:
        value = min_distance_sampled(CodewordStore(ms, inst.omega), samples=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    assert 1 <= value <= inst.n


def test_sampled_distance_holds_one_layout_of_the_basis_codewords(monkeypatch, inst2_p2):
    # II(2,2) at D = n, the store filled: the (n, dim*k) layout is 376 KB.  With inner chunks of one column, one
    # sample's chunk is its product matrices, made and transposed, and four (n, k) arrays of 8-byte entries, so
    # one layout and one chunk bound the peak; reading the store through a (dim, n, k) copy first takes two layouts
    ms = inst2_p2.message_space()
    store = CodewordStore(ms, inst2_p2.omega)
    expected = blocked_min_distance_sampled(store, samples=1, seed=0)
    n, k = store.n, ms.ctx.k
    layout, chunk = n * ms.dim * k, 2 * ms.dim * k * k * 8 + 4 * n * k * 8
    monkeypatch.setattr(linalg, "MATMUL_CHUNK_ENTRIES", 1)
    tracemalloc.start()
    try:
        value = min_distance_sampled(store, samples=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expected and peak < layout + chunk < 2 * layout


def test_distance_section_refuses_the_full_field_table_on_i23():
    # D = 1: dim 1 and |F| = 2^21 fit the codeword budget, but |F|*n*k*8 bytes, the int64 table of one row's
    # multiples, exceed LOW_TABLE_BYTES.  No such table is built any more; the bound is kept so that the
    # modes and the report bytes stay fixed.  The full field would allocate dim*n*k^2 generator digits
    # (12.6 MB here) and kernel_counts' counter slabs; a rule on those bytes would change this mode and
    # the report bytes, so it is a separate change
    sec = distance_section(build_instance(InstanceConfig("I", 2, 3, D=1)))
    assert (sec["status"], sec["mode"], sec["distance"], sec["enumerated"]) == ("computed", "prime-subcode", 3584, 2)
