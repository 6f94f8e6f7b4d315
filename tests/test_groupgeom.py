"""Subgroups, closure, the affine group, free points, and orbits."""

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from oracles import (
    AffineMap,
    Poly,
    group_elements,
    independent_over_subfield,
    kernel_subspace,
    point_set,
    poly_digits,
    scalar_build_graph,
    scalar_find_free_point,
    scalar_orbit,
    scalar_primitive_element,
    scalar_scaling_closure,
    scalar_scaling_group,
    translation_invariant_poly,
)
from orbitcodes import groupgeom
from orbitcodes.cosetgraph import build_graph
from orbitcodes.errors import ConfigurationError, InternalError, ParameterError
from orbitcodes.gf import build_field
from orbitcodes.groupgeom import (
    GroupA,
    ScalingGroup,
    TranslationGroup,
    find_free_point,
    orbit,
    roots_of_linearized,
    scaling_closure,
    scaling_subgroup,
)
from orbitcodes.instance import InstanceConfig, build_instance


def test_roots_of_x_p_minus_x_is_prime_subfield():
    f64 = build_field(2, 6)
    space = roots_of_linearized([0, 1, 1], f64)  # X^2 - X = X^2 + X over F_2
    assert point_set(space) == {f64.zero(), f64.one()}


def test_roots_of_instancing_polynomial_in_f64():
    f64 = build_field(2, 6)
    space = roots_of_linearized([0, 1, 1, 0, 1], f64)  # X^4 + X^2 + X
    assert space.size == 4 and space.dim == 2
    # the roots are {0} plus the roots of X^3 + X + 1
    for x in f64.elements_of(space.points()):
        if not x.is_zero():
            assert x**3 + x + f64.one() == f64.zero()


def test_roots_rejects_too_small_ambient():
    f4 = build_field(2, 2)
    with pytest.raises(ConfigurationError):
        roots_of_linearized([0, 1, 1, 0, 1], f4)  # splits only in F_8-containing fields


def test_roots_rejects_non_linearized():
    f64 = build_field(2, 6)
    with pytest.raises(ParameterError):
        roots_of_linearized([0, 1, 0, 1], f64)  # X^3 + X
    with pytest.raises(ParameterError):
        roots_of_linearized([0, 0, 1, 0, 1], f64)  # zero X-coeff


def test_affine_map_identity_and_inverse():
    f64 = build_field(2, 6)
    ident = AffineMap.identity(f64)
    a = AffineMap(f64.from_int(13), f64.from_int(9))
    assert ident.compose(a) == a
    assert a.compose(ident) == a
    assert a.compose(a.inverse()).is_identity()
    assert a.inverse().compose(a).is_identity()
    inv = a.inverse()
    assert inv.scale == a.scale.inverse()
    assert inv.shift == -(a.scale.inverse() * a.shift)


def test_affine_map_rejects_zero_scale():
    f4 = build_field(2, 2)
    with pytest.raises(ParameterError):
        AffineMap(f4.zero(), f4.zero())


def test_affine_composition_associative_500_random():
    f64 = build_field(2, 6)
    rng = random.Random(0)

    def rand_map():
        return AffineMap(f64.from_int(rng.randrange(64)), f64.from_int(rng.randrange(1, 64)))

    for _ in range(500):
        a, b, c = rand_map(), rand_map(), rand_map()
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        # composition agrees with function application
        x = f64.from_int(rng.randrange(64))
        assert a.compose(b).apply(x) == a.apply(b.apply(x))


def test_scaling_subgroup_orders_and_containment():
    f64 = build_field(2, 6)
    h = scaling_subgroup(f64, 3)  # F_4^x inside F_64
    assert h.order == 3
    els = f64.elements_of(h.elements)
    assert els[0] == f64.one()
    assert len(set(els)) == 3
    for x in els:
        assert x**3 == f64.one()
    with pytest.raises(ParameterError):
        scaling_subgroup(f64, 5)  # 5 does not divide 63


def test_scaling_group_rejects_wrong_order():
    f64 = build_field(2, 6)
    with pytest.raises(ParameterError):
        ScalingGroup(f64, f64.one().coeffs, 3)  # 1 has order 1, not 3


@pytest.mark.parametrize(
    "code,order,message",
    [
        (0, 3, "must be nonzero"),
        (1, 0, "order must be >= 1"),
        ("g3", 2, "does not divide the stated order"),  # g3 has order 3
        ("g3", 6, "order smaller than 6"),
        ("g9", 3, "does not divide the stated order"),  # g9 has order 9
        ("g9", 27, "order smaller than 27"),
    ],
)
def test_scaling_group_order_errors(code, order, message):
    f64 = build_field(2, 6)
    if isinstance(code, str):  # an element of order 3 or 9: a power of the primitive element
        gen = scalar_primitive_element(f64) ** (63 // int(code[1:]))
    else:
        gen = f64.from_int(code)
    with pytest.raises(ParameterError, match=message):
        ScalingGroup(f64, gen.coeffs, order)


def test_closure_with_trivial_scaling_group_is_g(inst1_p2):
    ambient = inst1_p2.ambient
    G = inst1_p2.G
    trivial_h = ScalingGroup(ambient, ambient.one().coeffs, 1)
    s = scaling_closure(G, trivial_h)
    assert point_set(s) == point_set(G.points)


def test_group_a_refuses_a_translation_space_not_invariant_under_h(inst1_p2):
    # G itself is not closed under H; its closure S is.  A takes its field from S and refuses an H from another
    inst = inst1_p2
    with pytest.raises(ParameterError, match="not invariant"):
        GroupA(inst.G.points, inst.H)
    assert GroupA(inst.S, inst.H).size == inst.n
    with pytest.raises(ParameterError, match="field of the translation space"):
        GroupA(inst.S, scaling_subgroup(build_field(2, 4), 3))


def test_closure_sizes_match_both_instantiations(inst1_p2, inst2_p2):
    assert inst1_p2.S.size == 2**4  # p^(m^2)
    assert inst2_p2.S.size == 2**6  # p^(m(m+1))
    # instantiation II closure is the full degree-m(m+1) subfield
    for x in inst2_p2.ambient.elements_of(inst2_p2.S.points()):
        assert x**64 == x


def test_closure_is_h_invariant(all_instances):
    for inst in all_instances:
        for h in inst.ambient.elements_of(inst.H.elements):
            mapped = {h * s for s in inst.ambient.elements_of(inst.S.points())}
            assert mapped == point_set(inst.S)


def test_group_a_sizes(all_instances):
    expected = {("I", 2): 48, ("I", 3): 648, ("II", 2): 448}
    for inst in all_instances:
        key = (inst.config.instantiation, inst.config.p)
        assert inst.A.size == expected[key]
        assert inst.A.size == inst.S.size * inst.H.order
        assert len(group_elements(inst.A)) == len(set(group_elements(inst.A))) == inst.A.size


def test_group_a_closed_under_composition(inst1_p2):
    rng = random.Random(1)
    maps = group_elements(inst1_p2.A)
    as_set = set(maps)
    for _ in range(200):
        a, b = rng.choice(maps), rng.choice(maps)
        assert a.compose(b) in as_set
        assert a.inverse() in as_set


def test_translations_and_scalings_intersect_trivially(all_instances):
    # the only affine map that is both a translation and a scaling is the identity
    for inst in all_instances:
        translations = {AffineMap(s, inst.ambient.one()) for s in inst.ambient.elements_of(inst.G.points.points())}
        scalings = {AffineMap(inst.ambient.zero(), h) for h in inst.ambient.elements_of(inst.H.elements)}
        both = translations & scalings
        assert both == {AffineMap.identity(inst.ambient)}


def test_free_point_and_orbit(all_instances):
    for inst in all_instances:
        alpha = inst.ambient.elements_of(inst.alpha[None])[0]
        for phi in group_elements(inst.A):
            if not phi.is_identity():
                assert phi.apply(alpha) != alpha
        om = inst.ambient.elements_of(inst.omega)
        assert len(om) == inst.A.size
        assert len(set(om)) == len(om)  # orbit map is injective


def test_free_point_deterministic_first_in_order(inst1_p2):
    ambient = inst1_p2.ambient
    alpha = ambient.elements_of(find_free_point(inst1_p2.A)[None])[0]
    # nothing earlier in enumeration order is free
    bad_before = []
    for v in range(alpha.code()):
        x = ambient.from_int(v)
        free = all(phi.apply(x) != x for phi in group_elements(inst1_p2.A) if not phi.is_identity())
        bad_before.append(free)
    assert not any(bad_before)


X4_X2_X = [0, 1, 1, 0, 1]  # X^4 + X^2 + X over F_2


def _translation_only_group():
    f64 = build_field(2, 6)
    G = TranslationGroup(X4_X2_X, f64)
    trivial_h = ScalingGroup(f64, f64.one().coeffs, 1)
    return G, GroupA(scaling_closure(G, trivial_h), trivial_h)


def test_translation_only_group_every_point_free():
    G, A = _translation_only_group()
    f64 = A.ambient
    alpha = find_free_point(A)
    assert f64.elements_of(alpha[None])[0] == f64.zero()  # first element passes: translations never fix anything
    om = orbit(A, alpha)
    assert set(f64.elements_of(om)) == point_set(G.points)


RUNGS = [("I", 2, 2, None), ("II", 2, 2, Fraction(1)), ("I", 3, 2, None), ("I", 5, 2, None), ("I", 2, 3, None)]
RUNG_IDS = ["I22", "II22", "I32", "I52", "I23"]


@lru_cache(maxsize=None)
def _rung(config):
    return build_instance(InstanceConfig(config[0], config[1], config[2], gamma=config[3]))


@pytest.mark.parametrize("config", RUNGS, ids=RUNG_IDS)
def test_roots_of_linearized_match_callable_oracle(config):
    # the Frobenius-matrix kernel equals the kernel of scalar evaluation of g
    inst = _rung(config)
    g_ints = InstanceConfig(*config[:3], gamma=config[3]).g
    g = Poly.from_ints(inst.ambient, g_ints)
    assert np.array_equal(roots_of_linearized(g_ints, inst.ambient).basis, kernel_subspace(inst.ambient, g).basis)


@pytest.mark.parametrize("config", [*RUNGS, "translations"], ids=[*RUNG_IDS, "translation-only"])
def test_annihilator_matches_scalar_product(config):
    # g is prod_{u in G}(X - u), whose coefficients lie in F_p
    G = _translation_only_group()[0] if config == "translations" else _rung(config).G
    product = poly_digits(translation_invariant_poly(G.points))
    assert not G.g.flags.writeable
    assert not product[:, 1:].any()
    assert np.array_equal(G.g, product[:, 0])


def test_translation_group_refuses_a_non_monic_or_non_linearized_g():
    with pytest.raises(ParameterError, match="monic"):
        TranslationGroup([0, 1, 0, 2], build_field(3, 2))  # 2X^3 + X
    with pytest.raises(ParameterError, match="not linearized"):
        TranslationGroup([0, 1, 0, 1], build_field(2, 6))  # X^3 + X


def test_translation_group_checks_that_g_vanishes_on_its_roots(monkeypatch):
    # handed F_4, the roots of X^4 - X, for g = X^4 + X^2 + X, the check refuses the pair
    f64 = build_field(2, 6)
    f4 = roots_of_linearized([0, 1, 0, 0, 1], f64)
    monkeypatch.setattr(groupgeom, "roots_of_linearized", lambda g, ambient: f4)
    with pytest.raises(InternalError, match="does not vanish"):
        TranslationGroup(X4_X2_X, f64)


@pytest.mark.parametrize("config", [*RUNGS, "translations"], ids=[*RUNG_IDS, "translation-only"])
def test_array_build_matches_scalar_oracles(config):
    if config == "translations":
        G, A = _translation_only_group()
    else:
        inst = _rung(config)
        G, A = inst.G, inst.A
    alpha, scalar_alpha = find_free_point(A), scalar_find_free_point(A)
    assert A.ambient.elements_of(alpha[None])[0] == scalar_alpha
    om = orbit(A, alpha)
    assert not om.flags.writeable
    assert np.array_equal(om, scalar_orbit(A, scalar_alpha))
    fast, slow = build_graph(A, G), scalar_build_graph(A, G)
    assert (fast.n_left, fast.n_right, fast.is_simple) == (slow.n_left, slow.n_right, slow.is_simple)
    assert fast.edges.dtype == np.int64 and np.array_equal(fast.edges, slow.edges)


def test_orbit_decomposes_into_g_orbits(inst1_p2):
    inst = inst1_p2
    gsize = inst.G.size
    orbits = set()
    g_points = inst.ambient.elements_of(inst.G.points.points())
    for x in inst.ambient.elements_of(inst.omega):
        key = frozenset((x + t).coeffs for t in g_points)
        orbits.add(key)
    assert len(orbits) == inst.n // gsize
    assert all(len(o) == gsize for o in orbits)


def test_basis_of_g_independent_over_subfield():
    # the closure argument rests on an F_p-basis of G staying independent
    # over F_{p^m}; check by exact rank computation over the subfield
    for p in (2, 3):
        inst = build_instance(InstanceConfig("I", p, 2, r=Fraction(1, 2)))
        ambient = inst.ambient
        assert independent_over_subfield(ambient, inst.G.points.basis, 2)


def test_multiple_by_a_subfield_element_is_dependent_over_the_subfield(inst1_p2):
    ambient = inst1_p2.ambient
    f4 = kernel_subspace(ambient, lambda x: x**4 - x)
    lam = next(x for x in ambient.elements_of(f4.points()) if x not in (ambient.zero(), ambient.one()))
    v = ambient.gen()
    assert not independent_over_subfield(ambient, ambient.digit_rows([v, lam * v]), 2)
    assert independent_over_subfield(ambient, ambient.digit_rows([v, lam * v]), 1)  # lam lies outside F_2


LADDER = [*RUNGS, ("I", 7, 2, None)]


@pytest.mark.parametrize("config", LADDER, ids=[*RUNG_IDS, "I72"])
def test_scaling_group_and_closure_match_scalar_oracles(config):
    # H's generator is prim^(n/|H|) for the first primitive element; its powers,
    # their inverses and S's RREF basis agree bit for bit with the scalar build
    inst = _rung(config)
    ctx, H = inst.ambient, inst.H
    gen = scalar_primitive_element(ctx) ** ((ctx.order - 1) // H.order)
    assert tuple(H.generator.tolist()) == gen.coeffs
    powers, inverses = scalar_scaling_group(gen, H.order)
    for arr, expected in ((H.elements, powers), (H.inverses, inverses)):
        assert not arr.flags.writeable and arr.dtype == np.int64
        assert np.array_equal(arr, ctx.digit_rows(expected))
    assert not inst.S.basis.flags.writeable
    assert np.array_equal(inst.S.basis, scalar_scaling_closure(inst.G, H).basis)
    assert not inst.alpha.flags.writeable and inst.alpha.shape == (ctx.k,)
