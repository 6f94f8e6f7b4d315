"""Field arithmetic, trace, trace-dual subspaces, characters, batched products."""

import math
import random
import warnings
from functools import lru_cache
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

from oracles import (
    Poly,
    char_exponent,
    conjugate_trace_vector,
    contains,
    galois_poly,
    int64_mul_rows,
    kernel_subspace,
    point_set,
    scalar_primitive_element,
    trace,
)
from orbitcodes import gf
from orbitcodes.errors import ParameterError
from orbitcodes.gf import (
    FpSubspace,
    base_p_digits,
    build_field,
    frobenius_matrix,
    mul_rows,
    pow_rows,
    primitive_element,
    product_matrices,
)


def test_build_field_prime_field_modulus_is_x():
    f2 = build_field(2, 1)
    assert f2.modulus == (0, 1)
    assert f2.order == 2


def test_build_field_f4_modulus_pinned():
    # the only irreducible monic quadratic over F_2
    f4 = build_field(2, 2)
    assert f4.modulus == (1, 1, 1)


def test_build_field_f64_exists_and_deterministic():
    a = build_field(2, 6)
    b = build_field(2, 6)
    assert a.order == 64
    assert a.modulus == b.modulus


def test_build_field_rejects_composite_characteristic():
    with pytest.raises(ParameterError):
        build_field(4, 2)


def test_field_axioms_random():
    rng = random.Random(0)
    for ctx in (build_field(2, 6), build_field(3, 4), build_field(5, 2)):
        q = ctx.order
        for _ in range(200):
            a = ctx.from_int(rng.randrange(q))
            b = ctx.from_int(rng.randrange(q))
            c = ctx.from_int(rng.randrange(q))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == ctx.one()
                assert (b / a) * a == b


def test_frobenius_is_additive_on_f64():
    ctx = build_field(2, 6)
    rng = random.Random(1)
    for _ in range(100):
        a = ctx.from_int(rng.randrange(64))
        b = ctx.from_int(rng.randrange(64))
        assert (a + b) ** 2 == a**2 + b**2


def test_trace_table_on_f4():
    f4 = build_field(2, 2)
    omega = f4.gen()
    assert trace(f4.zero()) == 0
    assert trace(f4.one()) == 0  # 1 + 1 in characteristic 2
    assert trace(omega) == 1  # omega + omega^2 = 1
    assert trace(omega**2) == 1


def test_trace_linearity_and_frobenius_invariance():
    rng = random.Random(2)
    for ctx in (build_field(2, 6), build_field(3, 4)):
        p, q = ctx.p, ctx.order
        for _ in range(1000):
            x = ctx.from_int(rng.randrange(q))
            y = ctx.from_int(rng.randrange(q))
            assert trace(x + y) == (trace(x) + trace(y)) % p
            assert trace(x**p) == trace(x)


def test_frobenius_fixed_field_has_p_elements():
    for ctx in (build_field(2, 6), build_field(3, 4), build_field(2, 12)):
        fixed = kernel_subspace(ctx, lambda v: v**ctx.p - v)
        assert fixed.size == ctx.p


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 6), (3, 4), (5, 3), (2, 12)])
def test_trace_vector_is_the_conjugate_sum(p, k):
    # the diagonal sums of the multiplication matrices are the traces of the power basis
    ctx = build_field(p, k)
    assert ctx.trace_vector().tolist() == list(conjugate_trace_vector(ctx))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 6), (3, 4), (5, 3), (2, 12)])
def test_frobenius_matrix_matches_scalar_powers(p, k):
    ctx = build_field(p, k)
    frob = frobenius_matrix(ctx)
    rng = np.random.default_rng(p * 100 + k)
    for code in rng.integers(0, ctx.order, size=20):
        x = ctx.from_int(int(code))
        assert tuple(int(c) for c in frob @ np.array(x.coeffs) % p) == (x**p).coeffs


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 6), (3, 4), (5, 3), (2, 12), (5, 2)])
def test_frobenius_matrix_matches_powers_mod_the_modulus(p, k):
    # column j is X^(jp) reduced mod the modulus by galoistools, as the old pow_mod construction built it
    ctx = build_field(p, k)
    modulus = galois_poly(ctx.modulus, p)
    expected = np.zeros((k, k), dtype=np.int64)
    for j in range(k):
        col = gf_pow_mod([1, 0], j * p, modulus, p, ZZ)[::-1]
        expected[: len(col), j] = col
    frob = frobenius_matrix(ctx)
    assert frob.dtype == expected.dtype and np.array_equal(frob, expected)


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (2, 12), (5, 2)])
def test_subfield_kernels_of_frobenius_powers_match_callable_oracle(p, k):
    ctx = build_field(p, k)
    frob, power = frobenius_matrix(ctx), np.eye(k, dtype=np.int64)
    for d in range(1, k + 1):
        power = frob @ power % p
        fast = FpSubspace.kernel(ctx, (power - np.eye(k, dtype=np.int64)) % p)
        slow = kernel_subspace(ctx, lambda v: v ** (p**d) - v)
        assert np.array_equal(fast.basis, slow.basis)
        assert fast.size == p ** math.gcd(d, k)  # the fixed field of x -> x^(p^d)


def test_dual_of_trivial_and_full():
    ctx = build_field(2, 4)
    trivial = FpSubspace(ctx, [])
    full = FpSubspace(ctx, ctx.digit_rows(list(ctx.elements())))
    assert trivial.dual().size == ctx.order
    assert full.dual().size == 1


def test_dual_of_one_span_in_f4():
    f4 = build_field(2, 2)
    span1 = FpSubspace(f4, f4.digit_rows([f4.one()]))
    dual = span1.dual()
    assert point_set(dual) == {f4.zero(), f4.one()}


def _all_subspaces_f16(ctx):
    nonzero = [ctx.from_int(v) for v in range(1, 16)]
    seen = {}
    for d in range(0, 5):
        if d == 0:
            seen[frozenset({ctx.zero()})] = FpSubspace(ctx, [])
            continue
        for combo in combinations(nonzero, d):
            space = FpSubspace(ctx, ctx.digit_rows(combo))
            if space.dim < d:  # the combo is dependent
                continue
            key = point_set(space)
            if key not in seen:
                seen[key] = space
    return list(seen.values())


def test_dual_involution_exhaustive_f16():
    ctx = build_field(2, 4)
    spaces = _all_subspaces_f16(ctx)
    assert len(spaces) == 67  # total number of subspaces of F_2^4
    for space in spaces:
        dual = space.dual()
        assert space.dim + dual.dim == ctx.k
        assert point_set(dual.dual()) == point_set(space)


def test_char_exponent_trivial_and_table():
    f4 = build_field(2, 2)
    omega = f4.gen()
    for s in f4.elements():
        assert char_exponent(f4.zero(), s) == 0
    assert char_exponent(f4.one(), omega) == 1


def test_character_orthogonality_full_field():
    # sum over the whole field of chi_a vanishes for every a != 0:
    # the exponent histogram is uniform across residues
    for ctx in (build_field(2, 6), build_field(3, 4)):
        p = ctx.p
        for code in range(1, ctx.order):
            a = ctx.from_int(code)
            counts = [0] * p
            for s in ctx.elements():
                counts[char_exponent(a, s)] += 1
            assert len(set(counts)) == 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_character_orthogonality_on_subspaces(dim):
    ctx = build_field(2, 6)
    rng = random.Random(dim)
    vecs = []
    while len(vecs) < dim:
        cand = ctx.from_int(rng.randrange(1, 64))
        if FpSubspace(ctx, ctx.digit_rows(vecs + [cand])).dim > len(vecs):
            vecs.append(cand)
    space = FpSubspace(ctx, ctx.digit_rows(vecs))
    assert space.dim == dim
    s_perp = point_set(space.dual())
    for a in ctx.elements():
        counts = [0, 0]
        for s in ctx.elements_of(space.points()):
            counts[char_exponent(a, s)] += 1
        if a in s_perp:
            assert counts == [space.size, 0]
        else:
            assert counts[0] == counts[1]


def test_subspace_points_deterministic_and_indexed():
    ctx = build_field(2, 6)
    space = FpSubspace(ctx, ctx.digit_rows([ctx.from_int(3), ctx.from_int(8)]))
    pts = space.points()
    assert pts.shape == (4, 6) and len(pts) == space.size
    assert not pts.flags.writeable
    assert space.index_of(pts).tolist() == list(range(4))
    assert space.index_of(np.array(ctx.one().coeffs)) == -1  # 1 lies outside span(3, 8)
    for pt in ctx.elements_of(pts):
        assert contains(space, pt)
    assert point_set(FpSubspace(ctx, pts)) == point_set(space)


def test_mixing_field_contexts_raises():
    # a real error, not an assert, so python -O keeps the check
    f4, f8 = build_field(2, 2), build_field(2, 3)
    a, b = f4.gen(), f8.gen()
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b, lambda: char_exponent(a, b)):
        with pytest.raises(ParameterError, match="context mismatch"):
            op()
    assert a * build_field(2, 2).gen() == a * a  # equal contexts built twice still mix


# -- batched products on digit arrays ----------------------------------------------

FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 6), (2, 21)]  # F_4, F_8, F_9, F_25, F_27, F_64, F_2^21


@lru_cache(maxsize=None)
def _field(p, k):
    return build_field(p, k)


@st.composite
def _field_and_elements(draw, count):
    ctx = _field(*draw(st.sampled_from(FIELDS)))
    return ctx, [ctx.from_int(draw(st.integers(0, ctx.order - 1))) for _ in range(count)]


@given(_field_and_elements(2))
def test_mul_matrix_product_is_the_field_product(case):
    ctx, (x, y) = case
    assert tuple((np.array(y.coeffs) @ product_matrices(ctx, np.array(x.coeffs)) % ctx.p).tolist()) == (x * y).coeffs


@given(_field_and_elements(16))
def test_mul_rows_is_the_row_wise_field_product(case):
    ctx, elements = case
    xs, ys = elements[:8], elements[8:]
    expected = ctx.digit_rows([x * y for x, y in zip(xs, ys)])
    for word_products in (gf.WORD_PRODUCTS, 1):  # 8 products take the digit path, and at p = 2 the words once the rule is 1
        with mock.patch.object(gf, "WORD_PRODUCTS", word_products):
            assert np.array_equal(mul_rows(ctx, ctx.digit_rows(xs), ctx.digit_rows(ys)), expected)


# every word width's edges at p = 2, the ladder's F_2^21, and two odd characteristics
@pytest.mark.parametrize("p,k", [(2, 1), (2, 8), (2, 9), (2, 16), (2, 17), (2, 21), (2, 32), (2, 33), (2, 63), (2, 64), (3, 6), (5, 3)])
def test_mul_rows_matches_the_int64_oracle_on_both_sides_of_the_word_rule(monkeypatch, p, k):
    # rows against rows, a column against a row of operands, and one element against rows; entries of
    # either sign and past p, and uint8 as the codeword store holds them; the word path makes no F_p product
    ctx = _field(p, k)
    rng = np.random.default_rng(p * 100 + k)
    calls = []
    matmul = gf.matmul_mod_p
    monkeypatch.setattr(gf, "matmul_mod_p", lambda *args: calls.append(1) or matmul(*args))
    for word_products in (1, 1 << 62):
        monkeypatch.setattr(gf, "WORD_PRODUCTS", word_products)
        for shapes in (((70, k), (70, k)), ((9, 1, k), (1, 8, k)), ((k,), (70, k))):
            signed = [rng.integers(-2 * p, 2 * p, size=shape) for shape in shapes]
            stored = [rng.integers(0, 256, size=shape).astype(np.uint8) for shape in shapes]
            for a, b in (signed, stored, stored[::-1]):
                calls.clear()
                got = mul_rows(ctx, a, b)
                assert got.dtype == np.int64 and np.array_equal(got, int64_mul_rows(ctx, a, b))
                assert bool(calls) == (p > 2 or word_products > 1)


def test_mul_rows_word_rule_counts_the_products_of_a_batch():
    # at p = 2 a batch of WORD_PRODUCTS = 64 products or more takes the words, whatever its shape
    ctx = _field(2, 12)
    calls = []
    matmul = gf.matmul_mod_p
    with mock.patch.object(gf, "matmul_mod_p", lambda *args: calls.append(1) or matmul(*args)):
        for shapes, words in ((((63, 12), (63, 12)), False), (((64, 12), (64, 12)), True), (((8, 1, 12), (1, 8, 12)), True)):
            calls.clear()
            mul_rows(ctx, *(np.ones(shape, dtype=np.int64) for shape in shapes))
            assert (not calls) == words


@given(_field_and_elements(1))
def test_matrix_of_the_inverse_of_one_minus_h_inverts_the_matrix_of_one_minus_h(case):
    ctx, (h,) = case
    assume(h != ctx.one())
    one_minus_h = ctx.one() - h
    inverse = product_matrices(ctx, np.array(one_minus_h.inverse().coeffs))
    product = product_matrices(ctx, np.array(one_minus_h.coeffs)) @ inverse % ctx.p
    assert np.array_equal(product, np.eye(ctx.k, dtype=np.int64))


# -- powers, batched matrices and the primitive element on the ladder fields ------------

# the ambient fields of I(2,2), II(2,2), I(3,2), I(5,2), I(2,3) and I(7,2)
LADDER_FIELDS = [(2, 6), (2, 12), (3, 6), (5, 6), (2, 21), (7, 6)]


@given(st.sampled_from(LADDER_FIELDS), st.data())
def test_pow_rows_matches_scalar_powers(field, data):
    ctx = _field(*field)
    codes = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=4))
    e = data.draw(st.integers(0, 2 * ctx.order))  # past the group order too
    xs = [ctx.from_int(c) for c in codes]
    got = pow_rows(ctx, ctx.digit_rows(xs), e)
    assert got.dtype == np.int64 and np.array_equal(got, ctx.digit_rows([x**e for x in xs]))


@given(st.sampled_from(LADDER_FIELDS), st.data())
def test_pow_rows_of_an_exponent_array_is_one_pow_rows_per_exponent(field, data):
    # exponents broadcast against the rows: a column of them gives one row of powers per exponent
    ctx = _field(*field)
    codes = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=4))
    exponents = data.draw(st.lists(st.integers(0, 2 * ctx.order), min_size=0, max_size=5))
    rows = base_p_digits(np.array(codes), ctx.p, ctx.k)
    got = pow_rows(ctx, rows, np.array(exponents, dtype=np.int64)[:, None])
    assert got.dtype == np.int64 and got.shape == (len(exponents), len(codes), ctx.k)
    for e, powers in zip(exponents, got):
        assert np.array_equal(powers, pow_rows(ctx, rows, e))
    per_row = [data.draw(st.integers(0, 2 * ctx.order)) for _ in codes]  # one exponent for each row
    got = pow_rows(ctx, rows, np.array(per_row))
    assert np.array_equal(got, np.stack([pow_rows(ctx, row, e) for row, e in zip(rows, per_row)]))


def test_pow_rows_refuses_a_negative_exponent():
    ctx = _field(2, 6)
    with pytest.raises(ParameterError, match="exponent"):
        pow_rows(ctx, ctx.digit_rows([ctx.gen()]), -1)
    with pytest.raises(ParameterError, match="exponent"):
        pow_rows(ctx, ctx.digit_rows([ctx.gen()]), np.array([[3], [-2]]))


def test_pow_rows_takes_the_lowest_set_bit_without_a_product(monkeypatch):
    # one squaring for each bit up to the top one; a product only at a set bit above the lowest set one
    ctx = _field(2, 6)
    x = ctx.gen() ** 5
    calls = []
    mul_rows = gf.mul_rows
    monkeypatch.setattr(gf, "mul_rows", lambda *args: calls.append(1) or mul_rows(*args))
    cases = [(2, [2], 1), (np.array([[2], [4], [8]]), [2, 4, 8], 3), (np.array([[3], [5]]), [3, 5], 4)]
    for e, exponents, count in cases:
        calls.clear()
        got = pow_rows(ctx, ctx.digit_rows([x]), e)
        assert len(calls) == count, e
        assert np.array_equal(got.reshape(-1, ctx.k), ctx.digit_rows([x**d for d in exponents]))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 6)])
def test_mul_tensor_is_read_only(p, k):
    with pytest.raises(ValueError, match="read-only"):
        _field(p, k).mul_tensor()[0, 0, 0] = 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (7, 5), (11, 4), (2, 24), *LADDER_FIELDS])
def test_mul_tensor_entries_are_powers_of_x_reduced_by_scalar_division(p, k):
    # T[i, j] = X^(i+j) mod the modulus, against the oracle's polynomial division over F_p
    ctx, prime = _field(p, k), _field(p, 1)
    modulus = Poly.from_ints(prime, ctx.modulus)
    tensor = ctx.mul_tensor()
    for t in range(2 * k - 1):
        _, rem = divmod(Poly.from_ints(prime, [0] * t + [1]), modulus)
        expected = [c.coeffs[0] for c in rem.coeffs] + [0] * (k - len(rem.coeffs))
        for i in range(max(0, t - k + 1), min(t, k - 1) + 1):
            assert tensor[i, t - i].tolist() == expected, (t, i)


@given(st.sampled_from(LADDER_FIELDS), st.data())
def test_batched_mul_matrix_matches_scalar_products(field, data):
    # row j of the product matrix of x is x * X^j, on a (2, 3) grid of elements
    ctx = _field(*field)
    codes = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=6, max_size=6))
    xs = [ctx.from_int(c) for c in codes]
    mats = product_matrices(ctx, ctx.digit_rows(xs).reshape(2, 3, ctx.k))
    assert mats.shape == (2, 3, ctx.k, ctx.k)
    powers = [ctx.one()]
    for _ in range(ctx.k - 1):
        powers.append(powers[-1] * ctx.gen())
    for x, mat in zip(xs, mats.reshape(6, ctx.k, ctx.k)):
        assert np.array_equal(mat, ctx.digit_rows([x * xj for xj in powers]))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), *LADDER_FIELDS])
def test_primitive_element_matches_scalar_oracle(p, k):
    ctx = _field(p, k)
    row = primitive_element(ctx)
    assert row.shape == (k,) and tuple(row.tolist()) == scalar_primitive_element(ctx).coeffs


@pytest.mark.parametrize("p,width", [(2, 70), (3, 41)])
def test_base_p_digits_past_the_int64_range_of_p_to_the_width(p, width):
    # p^(width-1) exceeds 2^63: every digit above an int64 index's top digit is 0, with no numpy warning
    idx = np.array([0, 1, 2, 3, 4, p**5 + 1, 2**62])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        digits = base_p_digits(idx, p, width)
    for row, i in zip(digits.tolist(), idx.tolist()):
        expected = [(i // p**t) % p for t in range(width)]
        assert row == expected
