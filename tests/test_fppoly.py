"""Prime-field polynomial helpers and mod-p linear algebra."""

import itertools
import random

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from oracles import base_digits, power
from orbitcodes import fppoly
from orbitcodes.errors import ParameterError
from orbitcodes.linalg import nullspace_mod_p, rank_mod_p, rref_mod_p


def test_find_irreducible_pinned_values():
    assert list(fppoly.find_irreducible(2, 2)) == [1, 1, 1]  # X^2+X+1
    assert list(fppoly.find_irreducible(2, 3)) == [1, 1, 0, 1]  # X^3+X+1
    assert list(fppoly.find_irreducible(3, 2)) == [1, 0, 1]  # X^2+1
    assert list(fppoly.find_irreducible(2, 1)) == [0, 1]  # X


def test_is_irreducible_known_cases():
    assert fppoly.is_irreducible(fppoly.make([1, 1, 1], 2), 2)
    assert not fppoly.is_irreducible(fppoly.make([1, 0, 1], 2), 2)  # (X+1)^2
    assert fppoly.is_irreducible(fppoly.make([1, 0, 0, 0, 0, 0, 1, 1], 2), 2)  # X^7+X^6+1


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 4)])
def test_is_irreducible_matches_sympy_on_every_monic_polynomial(p, max_degree):
    checked = 0
    for degree in range(1, max_degree + 1):
        for low in itertools.product(range(p), repeat=degree):
            f = np.array(list(low) + [1], dtype=np.int64)  # little-endian; sympy lists the top coefficient first
            assert fppoly.is_irreducible(f, p) == gf_irreducible_p([int(c) for c in f[::-1]], p, ZZ)
            checked += 1
    assert checked == sum(p**d for d in range(1, max_degree + 1))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", range(1, 7))
def test_find_irreducible_returns_a_monic_irreducible_of_the_degree(p, k):
    f = fppoly.find_irreducible(p, k)
    assert fppoly.deg(f) == k and f[-1] == 1
    assert gf_irreducible_p([int(c) for c in f[::-1]], p, ZZ)


def test_divmod_roundtrip_random():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(300):
            a = fppoly.make([rng.randrange(p) for _ in range(rng.randrange(1, 30))], p)
            b = fppoly.make([rng.randrange(p) for _ in range(rng.randrange(1, 12))], p)
            if fppoly.is_zero(b):
                continue
            q, r = fppoly.divmod_(a, b, p)
            assert np.array_equal(fppoly.add(fppoly.mul(q, b, p), r, p), a)
            assert fppoly.deg(r) < fppoly.deg(b)


def test_mul_large_uses_exact_fft_path():
    rng = random.Random(1)
    a = fppoly.make([rng.randrange(3) for _ in range(1500)], 3)
    b = fppoly.make([rng.randrange(3) for _ in range(1400)], 3)
    big = fppoly.mul(a, b, 3)
    # cross-check a few coefficients against direct convolution
    direct = np.convolve(a, b) % 3
    assert np.array_equal(big, fppoly.trim(direct))


def test_base_digits_monomial_base():
    p = 2
    f = fppoly.make([1, 0, 1, 1, 0, 0, 1], p)
    digits = base_digits(f, fppoly.make([0, 0, 1], p), p)  # base X^2
    assert [[int(c) for c in d] for d in digits] == [[1], [1, 1], [], [1]]
    base_x2 = np.array([0, 0, 1])[:, None, None]
    assert fppoly.expansion_degrees(f[None, :, None], base_x2, p).tolist() == [1]


def test_base_digits_rejects_constant_base():
    with pytest.raises(ParameterError):
        base_digits(fppoly.make([1, 1], 2), fppoly.make([1], 2), 2)
    with pytest.raises(ParameterError, match="nonconstant"):
        fppoly.expansion_degrees(np.ones((1, 2, 1), dtype=np.int64), np.ones((1, 1, 1), dtype=np.int64), 2)


def test_splitting_degree():
    # X^4+X^2+X = X * (X^3+X+1): factors of degree 1 and 3
    g = fppoly.make([0, 1, 1, 0, 1], 2)
    assert fppoly.splitting_degree(g, 2) == 3
    # X^9+X^3+X over F_3 has splitting degree 3 as well
    g3 = np.zeros(10, dtype=np.int64)
    g3[[1, 3, 9]] = 1
    assert fppoly.splitting_degree(fppoly.trim(g3), 3) == 3


def test_power_matches_repeated_mul():
    p = 3
    g = fppoly.make([1, 2, 0, 1], p)
    acc = fppoly.make([1], p)
    for _ in range(7):
        acc = fppoly.mul(acc, g, p)
    assert np.array_equal(power(g, 7, p), acc)


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
