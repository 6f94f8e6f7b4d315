"""Modulus search, splitting degrees, base-u expansion and mod-p linear algebra.

The F_p polynomial oracles here are sympy's galoistools: gf_irreducible_p
for the irreducibility test, the distinct-degree factorization
gf_ddf_zassenhaus for splitting degrees, and gf_div, gf_mul and gf_pow
for the oracles' base expansion and repeated squaring.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_div, gf_irreducible_p, gf_mul, gf_pow

from oracles import base_digits, galois_poly, power
from orbitcodes import fppoly, linalg
from orbitcodes.errors import ParameterError
from orbitcodes.gf import FieldContext, build_field
from orbitcodes.instance import InstanceConfig
from orbitcodes.groupgeom import splitting_degree
from orbitcodes.linalg import matmul_mod_p, nullspace_mod_p, rank_mod_p, rref_mod_p


def _sympy_irreducible(f, p):
    return gf_irreducible_p(galois_poly(f, p), p, ZZ)


def _accepted(p, f):
    """Whether FieldContext accepts the monic f (little-endian) as a modulus over F_p."""
    try:
        FieldContext(p, len(f) - 1, f)
    except ParameterError:
        return False
    return True


def test_find_irreducible_pinned_values():
    assert build_field(2, 2).modulus == (1, 1, 1)  # X^2+X+1
    assert build_field(2, 3).modulus == (1, 1, 0, 1)  # X^3+X+1
    assert build_field(3, 2).modulus == (1, 0, 1)  # X^2+1
    assert build_field(2, 1).modulus == (0, 1)  # X
    # the ambient fields of I(5,2), II(2,2) and I(2,3); bundles record these moduli
    assert build_field(5, 6).modulus == (2, 1, 0, 0, 0, 0, 1)
    assert build_field(2, 12).modulus == (1, 0, 0, 1) + (0,) * 8 + (1,)
    assert build_field(2, 21).modulus == (1, 0, 1) + (0,) * 18 + (1,)


def test_is_irreducible_known_cases():
    assert _accepted(2, (1, 1, 1))
    assert not _accepted(2, (1, 0, 1))  # (X+1)^2
    assert _accepted(2, (1, 0, 0, 0, 0, 0, 1, 1))  # X^7+X^6+1


def test_reducible_modulus_is_refused():
    with pytest.raises(ParameterError, match="not irreducible"):
        FieldContext(2, 2, [1, 0, 1])  # (X+1)^2
    with pytest.raises(ParameterError, match="not irreducible"):
        FieldContext(2, 4, [1, 0, 1, 0, 1])  # no root in F_2, but (X^2+X+1)^2
    with pytest.raises(ParameterError, match="not irreducible"):
        FieldContext(2, 6, [1] * 7)  # (X^3+X+1)(X^3+X^2+1): X^64 = X, but X^8 - X is no unit


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 4)])
def test_is_irreducible_matches_sympy_on_every_monic_polynomial(p, max_degree):
    checked = 0
    for degree in range(1, max_degree + 1):
        for low in itertools.product(range(p), repeat=degree):
            f = tuple(low) + (1,)
            assert _accepted(p, f) == _sympy_irreducible(f, p)
            checked += 1
    assert checked == sum(p**d for d in range(1, max_degree + 1))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", range(1, 7))
def test_find_irreducible_returns_a_monic_irreducible_of_the_degree(p, k):
    f = build_field(p, k).modulus
    assert len(f) == k + 1 and f[-1] == 1
    assert _sympy_irreducible(f, p)
    # the first one in digit order: every smaller candidate X^k + c is reducible
    for v in range(sum(c * p**i for i, c in enumerate(f[:k]))):
        low = [(v // p**i) % p for i in range(k)]
        assert not _sympy_irreducible(low + [1], p)


def test_base_digits_monomial_base():
    p = 2
    f = [1, 0, 1, 1, 0, 0, 1]
    digits = base_digits(f, [0, 0, 1], p)  # base X^2
    assert digits == [[1], [1, 1], [], [1]]
    assert fppoly.expansion_degrees(np.array(f)[None], [0, 0, 1], p).tolist() == [1]


def test_base_digits_match_galoistools_division():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(200):
            f = [rng.randrange(p) for _ in range(rng.randrange(0, 40))]
            u = [rng.randrange(p) for _ in range(rng.randrange(1, 8))] + [rng.randrange(1, p)]
            expected, cur = [], galois_poly(f, p)
            while cur:
                cur, rem = gf_div(cur, galois_poly(u, p), p, ZZ)
                expected.append(rem[::-1])
            assert base_digits(f, u, p) == expected


def test_base_digits_rejects_constant_base():
    with pytest.raises(ParameterError):
        base_digits([1, 1], [1], 2)
    with pytest.raises(ParameterError, match="nonconstant"):
        fppoly.expansion_degrees(np.ones((1, 2), dtype=np.int64), [1], 2)


def test_splitting_degree():
    # X^4+X^2+X = X * (X^3+X+1): factors of degree 1 and 3
    assert splitting_degree([0, 1, 1, 0, 1], 2) == 3
    # X^9+X^3+X over F_3 has splitting degree 3 as well
    assert splitting_degree([0, 1, 0, 1, 0, 0, 0, 0, 0, 1], 3) == 3
    assert splitting_degree(InstanceConfig("I", 5, 3).g, 5) == 62
    assert splitting_degree(InstanceConfig("I", 7, 3).g, 7) == 114


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("instantiation", ["I", "II"])
def test_splitting_degree_is_the_lcm_of_the_factor_degrees(instantiation, p, m):
    g = InstanceConfig(instantiation, p, m, gamma=Fraction(1) if instantiation == "II" else None).g
    # one (product of the factors of degree d, d) pair per degree d present; full
    # factorization (gf_factor_sqf) would only split the products, taking 6 s on I(7,3)
    degrees = [d for _, d in gf_ddf_zassenhaus(galois_poly(g, p), p, ZZ)]
    assert splitting_degree(g, p) == np.lcm.reduce(degrees)


def test_power_matches_repeated_mul():
    p = 3
    g = [1, 2, 0, 1]
    acc = [1]
    for _ in range(7):
        acc = gf_mul(acc, galois_poly(g, p), p, ZZ)
    assert power(g, 7, p) == acc[::-1]
    assert power(g, 3**5, p) == gf_pow(galois_poly(g, p), 3**5, p, ZZ)[::-1]


def test_rref_rank_nullspace_mod_p():
    rng = np.random.default_rng(2)
    for p in (2, 3, 5):
        mat = rng.integers(0, p, size=(8, 12))
        rr, pivots = rref_mod_p(mat, p)
        assert rank_mod_p(mat, p) == len(pivots)
        null = nullspace_mod_p(mat, p)
        assert len(null) == 12 - len(pivots)
        if len(null):
            assert not ((mat @ null.T) % p).any()
        # rref preserves the row space
        assert rank_mod_p(np.concatenate([mat, rr]), p) == len(pivots)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_matmul_mod_p_matches_int64_product(monkeypatch, p):
    rng = np.random.default_rng(p)
    shapes = [(1, 1, 1), (3, 0, 4), (0, 5, 2), (6, 9, 0), (7, 40, 11), (25, 3, 2)]
    # float64 throughout (0), or int64 throughout; then the default, one inner column per chunk, a few
    for int64_work, chunk_entries in itertools.product((0, 1 << 40), (linalg.MATMUL_CHUNK_ENTRIES, 1, 40)):
        monkeypatch.setattr(linalg, "INT64_PRODUCT_WORK", int64_work)
        monkeypatch.setattr(linalg, "MATMUL_CHUNK_ENTRIES", chunk_entries)
        for rows, inner, cols in shapes:
            a = rng.integers(-p + 1, p, size=(rows, inner))  # negative entries too
            b = rng.integers(0, p, size=(inner, cols))
            got = matmul_mod_p(a, b, p)
            assert got.dtype == np.int64 and np.array_equal(got, a @ b % p)


@pytest.mark.parametrize("p", [2, 5, 251])
def test_matmul_mod_p_stacks_broadcast_as_matmul(monkeypatch, p):
    rng = np.random.default_rng(p)
    shapes = [
        ((4, 3, 5), (4, 5, 2)),
        ((4, 3, 5), (5, 2)),  # a plain matrix against a stack, either way round
        ((3, 5), (6, 5, 2)),
        ((2, 1, 3, 5), (4, 5, 2)),  # stacks of size 1 and missing stack axes broadcast
        ((1, 3, 5), (7, 5, 2)),
        ((7, 3, 5), (1, 5, 2)),
        ((3, 0, 4), (3, 4, 2)),
        ((2, 3, 0), (2, 0, 4)),
    ]
    sizes = ((linalg.STACK_BLOCK_ENTRIES, linalg.MATMUL_CHUNK_ENTRIES), (1, 1), (10, 40))
    for int64_work, (block_entries, chunk_entries) in itertools.product((0, 1 << 40), sizes):  # float64 or int64 throughout
        monkeypatch.setattr(linalg, "INT64_PRODUCT_WORK", int64_work)
        monkeypatch.setattr(linalg, "STACK_BLOCK_ENTRIES", block_entries)  # one matrix per block, or a few
        monkeypatch.setattr(linalg, "MATMUL_CHUNK_ENTRIES", chunk_entries)
        for shape_a, shape_b in shapes:
            a = rng.integers(-p + 1, p, size=shape_a)
            b = rng.integers(0, p, size=shape_b)
            got = matmul_mod_p(a, b, p)
            assert got.dtype == np.int64 and np.array_equal(got, np.matmul(a, b) % p)


def test_matmul_mod_p_refuses_stacks_that_do_not_broadcast():
    with pytest.raises(ParameterError, match="stacks do not broadcast"):
        matmul_mod_p(np.ones((2, 3, 4), dtype=np.int64), np.ones((3, 4, 5), dtype=np.int64), 2)
    with pytest.raises(ParameterError, match="stacks do not broadcast"):
        matmul_mod_p(np.ones((2, 2, 3, 4), dtype=np.int64), np.ones((3, 4, 5), dtype=np.int64), 2)
    with pytest.raises(ParameterError, match="cannot multiply"):  # mismatched inner dimension of a stack
        matmul_mod_p(np.ones((2, 3, 4), dtype=np.int64), np.ones((2, 5, 5), dtype=np.int64), 2)
    with pytest.raises(ParameterError, match="cannot multiply"):  # a vector is not a matrix
        matmul_mod_p(np.ones(3, dtype=np.int64), np.ones((3, 2), dtype=np.int64), 2)


def test_matmul_mod_p_refuses_shapes_that_reach_two_to_the_53(monkeypatch):
    p = 2**26 + 15  # prime; (p-1)^2 is just above 2^52, so two inner terms can reach 2^53
    assert 1 * (p - 1) ** 2 < 2**53 <= 2 * (p - 1) ** 2
    top = np.full((1, 1), p - 1, dtype=np.int64)
    for int64_work in (0, linalg.INT64_PRODUCT_WORK):  # float64, then the default: int64 at these small shapes
        monkeypatch.setattr(linalg, "INT64_PRODUCT_WORK", int64_work)
        assert matmul_mod_p(top, top, p).tolist() == [[(p - 1) ** 2 % p]]  # exact just below the bound
        with pytest.raises(ParameterError, match="2\\^53"):  # refused even where int64 would be exact
            matmul_mod_p(np.full((1, 2), p - 1), np.full((2, 1), p - 1), p)
    with pytest.raises(ParameterError, match="cannot multiply"):
        matmul_mod_p(np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64), 2)


def test_rref_mod_p_refuses_int64_overflow():
    p = 2**32 + 15  # prime; one pivot's update alone can pass 2^63
    with pytest.raises(ParameterError, match="overflow int64"):
        rref_mod_p(np.eye(2, dtype=np.int64), p)
