"""Field arithmetic, trace, trace-dual subspaces, characters, embeddings."""

import random
from itertools import combinations

import pytest

from orbitcodes.errors import ParameterError
from orbitcodes.gf import (
    FpSubspace,
    build_field,
    char_exponent,
    dual_subspace,
    embed,
    kernel_subspace,
    span_of,
    trace,
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


def test_dual_of_trivial_and_full():
    ctx = build_field(2, 4)
    trivial = FpSubspace(ctx, [])
    full = FpSubspace.from_vectors(ctx, list(ctx.elements()))
    assert dual_subspace(trivial).size == ctx.order
    assert dual_subspace(full).size == 1


def test_dual_of_one_span_in_f4():
    f4 = build_field(2, 2)
    span1 = FpSubspace(f4, [f4.one()])
    dual = dual_subspace(span1)
    assert dual.point_set() == {f4.zero(), f4.one()}


def _all_subspaces_f16(ctx):
    nonzero = [ctx.from_int(v) for v in range(1, 16)]
    seen = {}
    for d in range(0, 5):
        if d == 0:
            seen[frozenset({ctx.zero()})] = FpSubspace(ctx, [])
            continue
        for combo in combinations(nonzero, d):
            try:
                space = FpSubspace(ctx, list(combo))
            except ParameterError:
                continue
            key = space.point_set()
            if key not in seen:
                seen[key] = space
    return list(seen.values())


def test_dual_involution_exhaustive_f16():
    ctx = build_field(2, 4)
    spaces = _all_subspaces_f16(ctx)
    assert len(spaces) == 67  # total number of subspaces of F_2^4
    for space in spaces:
        dual = dual_subspace(space)
        assert space.dim + dual.dim == ctx.k
        assert dual_subspace(dual).point_set() == space.point_set()


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
        try:
            FpSubspace(ctx, vecs + [cand])
        except ParameterError:
            continue
        vecs.append(cand)
    space = FpSubspace(ctx, vecs)
    s_perp = dual_subspace(space).point_set()
    for a in ctx.elements():
        counts = [0, 0]
        for s in space.points():
            counts[char_exponent(a, s)] += 1
        if a in s_perp:
            assert counts == [space.size, 0]
        else:
            assert counts[0] == counts[1]


def test_embed_is_ring_homomorphism():
    f4 = build_field(2, 2)
    f64 = build_field(2, 6)
    assert embed(f4.zero(), f64) == f64.zero()
    assert embed(f4.one(), f64) == f64.one()
    img = embed(f4.gen(), f64)
    # image satisfies the defining relation omega^2 + omega + 1 = 0
    assert img * img + img + f64.one() == f64.zero()
    els = list(f4.elements())
    for x in els:
        for y in els:
            assert embed(x * y, f64) == embed(x, f64) * embed(y, f64)
            assert embed(x + y, f64) == embed(x, f64) + embed(y, f64)


def test_embed_trace_compatibility():
    # Tr_{F64/F2}(embed(x)) = [F64:F4] * Tr_{F4/F2}(x) = 3 * Tr(x) = Tr(x) mod 2
    f4 = build_field(2, 2)
    f64 = build_field(2, 6)
    for x in f4.elements():
        assert trace(embed(x, f64)) == (3 * trace(x)) % 2


def test_embed_rejects_non_dividing_degree():
    f4 = build_field(2, 2)
    f8 = build_field(2, 3)
    with pytest.raises(ParameterError):
        embed(f4.gen(), f8)


def test_subspace_points_deterministic_and_indexed():
    ctx = build_field(2, 6)
    space = FpSubspace(ctx, [ctx.from_int(3), ctx.from_int(8)])
    pts = space.points()
    assert len(pts) == 4 == space.size
    for i, pt in enumerate(pts):
        assert space.index_of(pt) == i
        assert pt in space
    assert span_of(ctx, pts).point_set() == space.point_set()


def test_mixing_field_contexts_raises():
    # a real error, not an assert, so python -O keeps the check
    f4, f8 = build_field(2, 2), build_field(2, 3)
    a, b = f4.gen(), f8.gen()
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b, lambda: char_exponent(a, b)):
        with pytest.raises(ParameterError, match="context mismatch"):
            op()
    assert a * build_field(2, 2).gen() == a * a  # equal contexts built twice still mix
