"""Polynomial arithmetic, base-u expansion, invariant polynomials."""

import random

import pytest

from orbitcodes.errors import ParameterError
from orbitcodes.gf import FpSubspace, build_field
from orbitcodes.polyring import (
    MINUS_INFINITY,
    Poly,
    base_degree,
    base_expand,
    lagrange_interpolate,
    scaling_invariant_poly,
    translation_invariant_poly,
)


def _random_poly(ctx, max_deg, rng):
    deg = rng.randrange(0, max_deg + 1)
    return Poly(ctx, [ctx.from_int(rng.randrange(ctx.order)) for _ in range(deg + 1)])


def test_expand_zero_gives_empty_digits():
    f2 = build_field(2, 1)
    u = Poly.from_ints(f2, [0, 1, 1])  # X^2 + X
    exp = base_expand(Poly.zero(f2), u)
    assert exp.digits == ()
    assert base_degree(Poly.zero(f2), u) == MINUS_INFINITY


def test_expand_base_itself():
    f2 = build_field(2, 1)
    u = Poly.from_ints(f2, [0, 1, 1])
    exp = base_expand(u, u)
    assert exp.digits == (Poly.zero(f2), Poly.one(f2))


def test_expand_x_cubed_base_x2_plus_x():
    # X^3 = (X+1)(X^2+X) + X over F_2: digits [X, X+1]
    f2 = build_field(2, 1)
    u = Poly.from_ints(f2, [0, 1, 1])
    f = Poly.from_ints(f2, [0, 0, 0, 1])
    exp = base_expand(f, u)
    assert exp.digits == (Poly.from_ints(f2, [0, 1]), Poly.from_ints(f2, [1, 1]))
    assert base_degree(f, u) == 1


def test_expand_rejects_constant_base():
    f2 = build_field(2, 1)
    with pytest.raises(ParameterError):
        base_expand(Poly.one(f2), Poly.one(f2))


def test_base_degree_of_pure_power_is_zero():
    f3 = build_field(3, 1)
    u = Poly.from_ints(f3, [1, 2, 1])
    assert base_degree(u**5, u) == 0


def test_base_degree_range_and_sum_rule():
    rng = random.Random(0)
    for p in (2, 3):
        ctx = build_field(p, 1)
        for _ in range(300):
            u = _random_poly(ctx, 8, rng)
            while u.degree < 2:
                u = _random_poly(ctx, 8, rng)
            f = _random_poly(ctx, 20, rng)
            g = _random_poly(ctx, 20, rng)
            df, dg = base_degree(f, u), base_degree(g, u)
            dsum = base_degree(f + g, u)
            assert dsum <= max(df, dg)
            if df != MINUS_INFINITY:
                assert 0 <= df <= u.degree - 1


def test_subadditivity_1000_random_triples():
    rng = random.Random(1)
    for p in (2, 3):
        ctx = build_field(p, 1)
        trivial_branch_seen = 0
        for _ in range(1000):
            du = rng.randrange(2, 9)
            u = Poly(ctx, [ctx.from_int(rng.randrange(p)) for _ in range(du)] + [ctx.one()])
            f = _random_poly(ctx, 24, rng)
            g = _random_poly(ctx, 24, rng)
            df, dg = base_degree(f, u), base_degree(g, u)
            dprod = base_degree(f * g, u)
            if f.is_zero() or g.is_zero():
                assert dprod == MINUS_INFINITY
                continue
            assert dprod <= df + dg
            if df + dg >= u.degree:
                trivial_branch_seen += 1
        assert trivial_branch_seen > 0  # the trivially-true branch is exercised


def test_reconstruction_identity_1000_random():
    rng = random.Random(2)
    for p in (2, 3):
        ctx = build_field(p, 1)
        for _ in range(1000):
            du = rng.randrange(2, 9)
            u = Poly(ctx, [ctx.from_int(rng.randrange(p)) for _ in range(du)] + [ctx.one()])
            f = _random_poly(ctx, 30, rng)
            exp = base_expand(f, u)
            assert exp.reconstruct() == f
            assert all(d.degree < u.degree for d in exp.digits)


def test_translation_invariant_poly_trivial_group():
    ctx = build_field(2, 2)
    g = translation_invariant_poly(FpSubspace(ctx, []))
    assert g == Poly.x(ctx)


def test_translation_invariant_poly_f2_in_f4():
    f4 = build_field(2, 2)
    sub = FpSubspace(f4, [f4.one()])  # F_2 inside F_4
    g = translation_invariant_poly(sub)
    assert g == Poly.from_ints(f4, [0, 1, 1])  # X^2 + X


def test_translation_invariant_poly_is_linearized():
    # nonzero coefficients only at p-power exponents, for a subspace
    ctx = build_field(2, 6)
    sub = FpSubspace(ctx, [ctx.from_int(3), ctx.from_int(8), ctx.from_int(17)])
    g = translation_invariant_poly(sub)
    assert g.degree == 8
    p_powers = {1, 2, 4, 8}
    for e, c in enumerate(g.coeffs):
        if not c.is_zero():
            assert e in p_powers
    # vanishes exactly on the subgroup
    roots = {x for x in ctx.elements() if g(x).is_zero()}
    assert roots == set(sub.points())


def test_invariance_under_translations():
    ctx = build_field(2, 6)
    sub = FpSubspace(ctx, [ctx.from_int(3), ctx.from_int(8)])
    g = translation_invariant_poly(sub)
    rng = random.Random(3)
    for _ in range(200):
        x = ctx.from_int(rng.randrange(64))
        for t in sub.points():
            assert g(x + t) == g(x)


def test_scaling_invariant_poly():
    f4 = build_field(2, 2)
    assert scaling_invariant_poly(f4, 1) == Poly.x(f4)
    h = scaling_invariant_poly(f4, 3)
    # constant on multiplicative orbits of F_4^x
    omega = f4.gen()
    for beta in [f4.one(), omega, omega**2]:
        vals = {h(beta * omega**i) for i in range(3)}
        assert len(vals) == 1
    with pytest.raises(ParameterError):
        scaling_invariant_poly(f4, 0)


def test_lagrange_interpolation_roundtrip():
    ctx = build_field(2, 6)
    rng = random.Random(4)
    pts = [ctx.from_int(v) for v in (1, 5, 9, 23)]
    f = _random_poly(ctx, 3, rng)
    vals = [f(x) for x in pts]
    assert lagrange_interpolate(pts, vals) == f


def test_poly_divmod_random():
    rng = random.Random(5)
    ctx = build_field(3, 2)
    for _ in range(200):
        a = _random_poly(ctx, 12, rng)
        b = _random_poly(ctx, 6, rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_over_extension_field_coefficients():
    f64 = build_field(2, 6)
    a = Poly(f64, [f64.from_int(7), f64.from_int(33)])
    b = Poly(f64, [f64.from_int(2), f64.from_int(5), f64.from_int(61)])
    assert (a * b)(f64.from_int(9)) == a(f64.from_int(9)) * b(f64.from_int(9))
    assert a.int_coeffs() is None
    assert Poly.from_ints(f64, [1, 0, 1]).int_coeffs() == [1, 0, 1]


def test_mixing_poly_contexts_raises():
    f4, f8 = build_field(2, 2), build_field(2, 3)
    a, b = Poly.x(f4), Poly.x(f8) + Poly.one(f8)
    for op in (lambda: a + b, lambda: a * b, lambda: divmod(a, b)):
        with pytest.raises(ParameterError, match="context mismatch"):
            op()
