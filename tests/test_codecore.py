"""Message space, encoding, local RS checks, Schur products, distance, weights."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    Poly,
    base_degree,
    digit_weighted_monomials,
    monomial_is_sound,
    poly_digits,
    row_poly,
    scalar_encode,
    scaling_invariant_poly,
    weight_direct,
)
from orbitcodes import codecore, fppoly
from orbitcodes.codecore import (
    CodewordStore,
    MessageSpace,
    check_local_rs,
    constraint_report,
    encode,
    encode_basis_digits,
    max_degree_below,
    min_distance_exhaustive,
    min_distance_sampled,
    monomial_count,
    schur_check,
    schur_product,
)
from orbitcodes.errors import BudgetError, ConstraintViolation, ParameterError
from orbitcodes.gf import mul_rows
from orbitcodes.instance import InstanceConfig, build_instance
from orbitcodes.report import distance_section, full_report, rate_section, verify_section


def test_max_degree_below():
    assert max_degree_below(Fraction(3, 2)) == 1
    assert max_degree_below(Fraction(2)) == 1
    assert max_degree_below(Fraction(1, 3)) == 0
    assert max_degree_below(Fraction(0)) == -1


def test_config_and_instance_validate_code_parameters(inst1_p2, inst2_p2):
    # the config owns the instantiation, r and gamma rules; the instance owns an (r, D) override
    with pytest.raises(ParameterError):
        inst1_p2.message_space(r=Fraction(0))
    with pytest.raises(ParameterError):
        inst1_p2.message_space(D=inst1_p2.n + 1)
    with pytest.raises(ParameterError):
        InstanceConfig("II", 2, 2)  # missing gamma
    with pytest.raises(ParameterError):
        InstanceConfig("II", 3, 2, gamma=Fraction(1, 5))
    config = InstanceConfig("II", 2, 2, gamma=Fraction(1))
    assert config.h_order == 7 and inst2_p2.G.size == 4


@pytest.mark.parametrize(
    "config",
    [("I", 2, 2, None), ("II", 2, 2, Fraction(1)), ("I", 3, 2, None), ("I", 5, 2, None), ("I", 2, 3, None)],
    ids=["I22", "II22", "I32", "I52", "I23"],
)
def test_config_h_order_is_the_built_order(config):
    cfg = InstanceConfig(config[0], config[1], config[2], gamma=config[3])
    assert cfg.h_order == build_instance(cfg).H.order


def test_message_space_contains_constants(all_instances):
    for inst in all_instances:
        ms = inst.message_space()
        assert ms.dim >= 1
        # the constant 1 lies in the space: verify by direct constraint check
        rep = constraint_report(poly_digits(Poly.one(inst.ambient)).T, inst.G, inst.H, inst.config.r, inst.D)
        assert rep["all_ok"]


def test_message_space_dimension_regression(inst1_p2):
    # exact dimension by the linear-algebra construction, frozen as regression
    ms = inst1_p2.message_space()
    assert (ms.dim, ms.dim_u, ms.dim_v) == (11, 24, 32)


def test_message_space_counting_floor(all_instances):
    for inst in all_instances:
        n = inst.n
        for r in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for D in (n, 5 * n // 6):
                ms = inst.message_space(r=r, D=D)
                floor = 2 * int(r * D) - D  # 2*floor(D*r) - D with r*D exact
                import math

                floor = 2 * math.floor(r * D) - D
                assert ms.dim >= max(0, floor)
                assert ms.dim >= ms.dim_u + ms.dim_v - D


def test_message_space_basis_passes_independent_checks(inst1_p2):
    inst = inst1_p2
    ms = inst.message_space()
    report = constraint_report(ms.coeffs, inst.G, inst.H, inst.config.r, ms.D)
    assert report["all_ok"]
    # cross-check one basis element against the generic expansion route
    f = row_poly(inst.ambient, ms.coeffs[-1])
    dg = base_degree(f, row_poly(inst.ambient, inst.G.g))
    dh = base_degree(f, scaling_invariant_poly(inst.ambient, inst.H.order))
    assert Fraction(int(dg)) < inst.config.r * inst.G.size
    assert Fraction(int(dh)) < inst.config.r * inst.H.order


def test_rate_section_verifies_each_basis_polynomial_once(monkeypatch):
    # a fresh instance, so the message space is built inside rate_section
    inst = build_instance(InstanceConfig("I", 2, 2, r=Fraction(1, 2)))
    # one base-degree kernel call per base, each covering every basis row
    calls = []
    real = fppoly.expansion_degrees

    def counting(rows, u, p):
        calls.append(len(rows))
        return real(rows, u, p)

    monkeypatch.setattr(fppoly, "expansion_degrees", counting)
    section = rate_section(inst)
    assert section["checks"]["basis_constraints_pass"]
    assert calls == [section["dim"]] * 2 and section["dim"] == inst.message_space().dim


def test_encode_constants(inst1_p2):
    inst = inst1_p2
    cw0 = encode(poly_digits(Poly.zero(inst.ambient)), inst.omega, inst.G, inst.H, inst.config.r, inst.D)
    assert all(v.is_zero() for v in inst.ambient.elements_of(cw0))
    cw1 = encode(poly_digits(Poly.one(inst.ambient)), inst.omega, inst.G, inst.H, inst.config.r, inst.D)
    assert all(v == inst.ambient.one() for v in inst.ambient.elements_of(cw1))


def test_encode_rejects_constraint_violations(inst1_p2):
    inst = inst1_p2
    with pytest.raises(ConstraintViolation, match="^degree violated: 48 must be < 48$"):
        encode(poly_digits(Poly.monomial(inst.ambient, 48)), inst.omega, inst.G, inst.H, inst.config.r, inst.D)
    # digits are read mod p: X^48 written with a top coefficient p = 2 is the constant 1
    padded = np.zeros((49, 1), dtype=np.int64)
    padded[0, 0], padded[48, 0] = 1, 2
    one = encode(padded, inst.omega, inst.G, inst.H, inst.config.r, inst.D)
    assert inst.ambient.elements_of(one) == (inst.ambient.one(),) * inst.n
    # X^3 has scaling-side base degree 0 but translation digits fine; craft a
    # violation of the local bound instead: g itself has h-base degree 2 >= 1.5
    with pytest.raises(ConstraintViolation, match="base degree|base_degree"):
        encode(inst.G.g[:, None], inst.omega, inst.G, inst.H, inst.config.r, inst.D)


def _residue_variants(rows, p, rng):
    """rows, entries in [0, p), written as int64, uint8, int8 and int64 below 0, and as bool where they are all 0 or 1."""
    variants = [rows, rows.astype(np.uint8), (rows - p).astype(np.int8), rows - p * rng.integers(1, 4, size=rows.shape)]
    return variants + ([rows.astype(bool)] if rows.max(initial=0) <= 1 else [])


@pytest.mark.parametrize("name", ["inst1_p2", "inst1_p3", "I52"])
def test_constraint_report_reads_narrow_bool_and_negative_rows(request, name):
    # the same int64 values in every check, zero rows -1, whatever integer type or sign holds the residues
    inst = build_instance(InstanceConfig("I", 5, 2)) if name == "I52" else request.getfixturevalue(name)
    p, r = inst.ambient.p, inst.config.r
    rng = np.random.default_rng(p)
    for high in (p, 2):  # residues mod p, then 0/1 rows, which bool holds too
        rows = rng.integers(0, high, size=(7, 60))
        rows[[1, 4]] = 0
        rows[5, 3:] = 0
        reports = [constraint_report(v, inst.G, inst.H, r, inst.D) for v in _residue_variants(rows, p, rng)]
        assert len(reports) == (5 if high == 2 else 4)
        for rep in reports:
            for check, (values, bound, ok) in rep["checks"].items():
                expected, expected_bound, expected_ok = reports[0]["checks"][check]
                assert values.dtype == np.int64 and np.array_equal(values, expected), check
                assert bound == expected_bound and np.array_equal(ok, expected_ok)
                assert values[1] == values[4] == -1 and values.max() >= 0
            assert rep["all_ok"] == reports[0]["all_ok"]


@pytest.mark.parametrize("name", ["inst1_p2", "inst1_p3"])
def test_encode_reads_narrow_and_negative_digits_as_int64(request, name):
    # message-space elements, and the same with a monomial past the scaling bound or at D: every integer type
    # encodes to the same combination of the basis codewords or raises the ConstraintViolation that the scalar
    # expansion names
    inst = request.getfixturevalue(name)
    ctx, r, D = inst.ambient, inst.config.r, inst.D
    ms = inst.message_space()
    words = encode_basis_digits(ctx, ms.coeffs, inst.omega).astype(np.int64)
    rng = np.random.default_rng(ctx.p)
    bases = {"translation_base_degree": row_poly(ctx, inst.G.g), "scaling_base_degree": scaling_invariant_poly(ctx, inst.H.order)}
    bounds = {"degree": D, "translation_base_degree": r * inst.G.size, "scaling_base_degree": r * inst.H.order}
    for t in (None, max_degree_below(bounds["scaling_base_degree"]) + 1, D):
        scalars = rng.integers(0, ctx.p, size=ms.dim)
        f = np.zeros(D + 1, dtype=np.int64)
        f[:D] = scalars @ ms.coeffs % ctx.p
        if t is not None:
            f[t] = (f[t] + 1) % ctx.p
        poly = row_poly(ctx, f)
        values = {"degree": poly.degree, **{check: base_degree(poly, u) for check, u in bases.items()}}
        failed = [(c, v) for c, v in values.items() if v > max_degree_below(bounds[c])]
        for coeffs in _residue_variants(f[:, None], ctx.p, rng):
            if failed:
                check, value = failed[0]
                with pytest.raises(ConstraintViolation, match=rf"^{check} violated: {value} must be < {bounds[check]}$"):
                    encode(coeffs, inst.omega, inst.G, inst.H, r, D)
            else:
                expected = np.tensordot(scalars, words, axes=1) % ctx.p
                assert np.array_equal(encode(coeffs, inst.omega, inst.G, inst.H, r, D), expected)
        assert bool(failed) == (t is not None)


@pytest.mark.parametrize("name,D", [("inst1_p2", None), ("inst2_p2", 96)])
def test_encode_field_coefficients(request, name, D):
    # random F-combinations of the basis polynomials, with coefficients outside
    # F_p, encode to the same F-combinations of the basis codewords
    inst = request.getfixturevalue(name)
    ctx, r, D = inst.ambient, inst.config.r, inst.D if D is None else D
    ms = inst.message_space(D=D)
    words = encode_basis_digits(ctx, ms.coeffs, inst.omega)
    bounds = {
        "degree": D,
        "translation_base_degree": r * inst.G.size,
        "scaling_base_degree": r * inst.H.order,
    }
    bases = {
        "translation_base_degree": row_poly(ctx, inst.G.g),
        "scaling_base_degree": scaling_invariant_poly(ctx, inst.H.order),
    }
    rng = np.random.default_rng(8)
    for _ in range(3):
        scalars = [ctx.from_int(int(v)) for v in rng.integers(0, ctx.order, ms.dim)]
        f = Poly.zero(ctx)
        for s, row in zip(scalars, ms.coeffs):
            f = f + row_poly(ctx, row) * s
        assert f.int_coeffs() is None
        expected = mul_rows(ctx, ctx.digit_rows(scalars)[:, None, :], words).sum(axis=0) % ctx.p
        cw = encode(poly_digits(f), inst.omega, inst.G, inst.H, r, D)
        assert np.array_equal(cw, expected)
        assert np.array_equal(cw, scalar_encode(f, inst.omega))
        # one coefficient pushed past a bound: the first failing check, by the scalar oracle, names the violation
        for t in (max_degree_below(bounds["scaling_base_degree"]) + 1, D):
            bad = f + Poly.monomial(ctx, t, ctx.from_int(int(rng.integers(ctx.p, ctx.order))))
            values = {"degree": bad.degree, **{check: base_degree(bad, u) for check, u in bases.items()}}
            check, value = next((c, v) for c, v in values.items() if v > max_degree_below(bounds[c]))
            with pytest.raises(ConstraintViolation, match=rf"^{check} violated: {value} must be < {bounds[check]}$"):
                encode(poly_digits(bad), inst.omega, inst.G, inst.H, r, D)


def test_encode_injective_on_basis(inst1_p2):
    inst = inst1_p2
    ms = inst.message_space()
    words = [encode(row[:, None], inst.omega, inst.G, inst.H, inst.config.r, inst.D) for row in ms.coeffs]
    seen = {tuple(v.coeffs for v in inst.ambient.elements_of(w)) for w in words}
    assert len(seen) == ms.dim


def test_encode_basis_digits_matches_scalar_encode(inst1_p2):
    inst = inst1_p2
    ms = inst.message_space()
    digits = encode_basis_digits(inst.ambient, ms.coeffs, inst.omega)
    for bi in (0, ms.dim - 1):
        cw = encode(ms.coeffs[bi][:, None], inst.omega, inst.G, inst.H, inst.config.r, inst.D)
        assert np.array_equal(digits[bi], cw)
        assert np.array_equal(digits[bi], scalar_encode(row_poly(inst.ambient, ms.coeffs[bi]), inst.omega))


def test_local_rs_zero_codeword_passes(inst1_p2):
    inst = inst1_p2
    cw = np.zeros((inst.n, inst.ambient.k), dtype=np.int64)
    rep = check_local_rs(inst.ambient, cw, inst.local_maps, inst.config.r)
    assert rep.all_ok
    assert rep.vertices.tolist() == [-1] * (inst.graph.n_left + inst.graph.n_right)  # -1: zero restriction


def test_local_rs_every_basis_codeword_both_sides(inst1_p2):
    inst = inst1_p2
    ms = inst.message_space()
    digits = encode_basis_digits(inst.ambient, ms.coeffs, inst.omega)
    for bi in range(ms.dim):
        rep = check_local_rs(inst.ambient, digits[bi], inst.local_maps, inst.config.r)
        assert rep.all_ok
        assert len(rep.vertices) == inst.graph.n_left + inst.graph.n_right == 28


def test_local_rs_touches_every_coordinate_twice(inst1_p2):
    inst = inst1_p2
    left_seen = np.zeros(inst.n, dtype=int)
    right_seen = np.zeros(inst.n, dtype=int)
    left, right = inst.graph.incidence
    for edges in left:
        for e in edges:
            left_seen[e] += 1
    for edges in right:
        for e in edges:
            right_seen[e] += 1
    assert (left_seen == 1).all() and (right_seen == 1).all()


def test_local_rs_random_vector_fails(inst1_p2):
    inst = inst1_p2
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(100):
        vec = inst.ambient.digit_rows([inst.ambient.from_int(int(v)) for v in rng.integers(0, 64, inst.n)])
        if not check_local_rs(inst.ambient, vec, inst.local_maps, inst.config.r).all_ok:
            failures += 1
    assert failures == 100


def test_schur_all_ones_neutral(inst1_p2):
    inst = inst1_p2
    ms = inst.message_space()
    cw = encode(ms.coeffs[2][:, None], inst.omega, inst.G, inst.H, inst.config.r, inst.D)
    ones = encode(poly_digits(Poly.one(inst.ambient)), inst.omega, inst.G, inst.H, inst.config.r, inst.D)
    prod = schur_product(inst.ambient, cw, ones)
    assert np.array_equal(prod, cw)
    assert check_local_rs(inst.ambient, prod, inst.local_maps, inst.config.r).all_ok


def test_schur_products_pass_doubled_bound(inst1_p2):
    inst = inst1_p2
    ms = inst.message_space()
    digits = encode_basis_digits(inst.ambient, ms.coeffs, inst.omega)
    rng = random.Random(6)
    for _ in range(10):
        i, j = rng.randrange(ms.dim), rng.randrange(ms.dim)
        rep = schur_check(inst.ambient, digits[i], digits[j], inst.local_maps, inst.config.r)
        assert rep.all_ok


@pytest.fixture
def encoded(monkeypatch):
    """The row count of every encode_basis_digits call the codeword store makes."""
    calls = []

    def spy(ctx, coeffs, omega):
        calls.append(len(coeffs))
        return encode_basis_digits(ctx, coeffs, omega)

    monkeypatch.setattr(codecore, "encode_basis_digits", spy)
    return calls


def test_verify_encodes_only_the_checked_basis_rows(inst1_p3, encoded):
    # I(3,2) at D = n has 108 basis rows; verify checks the first 64 and 10 Schur pairs
    sec = verify_section(inst1_p3)
    assert inst1_p3.message_space().dim == 108
    assert sec["ok"] and sec["basis_checked"] == 64 and sec["schur_pairs_checked"] == 10
    assert encoded and sum(encoded) <= 64 + 2 * 10


def test_report_encodes_each_basis_row_once(encoded):
    # the benchmark's local-II22 instance: distance encodes all 16 basis rows, and verify's 12 come from the store
    inst = build_instance(InstanceConfig("II", 2, 2, gamma=Fraction(1), D=96))
    doc = full_report(inst, spectrum=False, rate=False, budgets={"verify_basis": 4})
    assert doc["ok"] and doc["distance"]["status"] == "computed"
    assert inst.message_space().dim == 16
    assert encoded == [16]


def test_codeword_store_encodes_each_row_once(encoded):
    inst = build_instance(InstanceConfig("I", 3, 2, D=80))  # dim 14, at p = 3
    ctx, ms = inst.ambient, inst.message_space()
    first = inst.codewords([3, 0, 7])
    again = inst.codewords([7, 7, 3, 0, 0])
    assert encoded == [3]
    assert np.array_equal(again, first[[2, 2, 0, 1, 1]])
    whole = inst.codewords(range(ms.dim))
    assert encoded == [3, ms.dim - 3]
    assert inst.codewords is inst.codewords and inst.codewords.ms is ms
    # narrow digits, bit-equal to one encoding of the whole basis
    assert whole.dtype == first.dtype == np.min_scalar_type(ctx.p - 1) == np.uint8
    assert np.array_equal(whole, encode_basis_digits(ctx, ms.coeffs, inst.omega))
    whole[:] = 0  # a copy: the held rows do not change
    assert np.array_equal(inst.codewords([3, 0, 7]), first)
    assert inst.codewords([]).shape == (0, inst.n, ctx.k)
    assert encoded == [3, ms.dim - 3]
    for bad in ([ms.dim], [-1]):
        with pytest.raises(ParameterError, match="basis rows"):
            inst.codewords(bad)


@pytest.mark.parametrize("sample", [0, 5])
def test_refused_distance_encodes_only_when_it_samples(encoded, sample):
    # a refused exhaustive distance encodes nothing; the sampler encodes every row, and verify then reads them
    inst = build_instance(InstanceConfig("I", 2, 2))
    sec = distance_section(inst, {"distance": 1}, sample=sample)
    assert sec["status"].startswith("skipped: budget")
    assert ("sampled_upper_bound" in sec) == bool(sample)
    assert encoded == ([11] if sample else [])
    assert verify_section(inst)["ok"]
    assert encoded == [11]


def test_budget_past_int64_refuses_before_encoding(inst2_p2, encoded):
    # II(2,2) at D = n has dim 70: within a budget of 2^70, but its message codes would overflow int64
    store = CodewordStore(inst2_p2.message_space(), inst2_p2.omega)
    with pytest.raises(BudgetError, match="the int64 limit"):
        min_distance_exhaustive(store, budget=2**70)
    assert encoded == []


def test_budget_past_int64_falls_back_to_the_prime_subcode(inst1_p2):
    # I(2,2) at D = n: the full field's 2^66 codes would overflow int64, the prime subcode's 2^11 do not
    store = CodewordStore(inst1_p2.message_space(), inst1_p2.omega)
    wide = min_distance_exhaustive(store, budget=2**70)
    assert (wide.mode, wide.enumerated) == ("prime-subcode", 2**11)
    assert wide == min_distance_exhaustive(store, budget=2**11)


def test_schur_doubled_bound_nonvacuous_below_half():
    # at r < 1/2 the doubled local dimension stays below the orbit size, so
    # the product check can actually fail; above 1/2 it is vacuous
    r = Fraction(1, 2)
    glen = 4
    single_allowed = max_degree_below(r * glen)  # 1
    doubled_allowed = 2 * single_allowed  # 2 < glen - 1 + 1
    assert doubled_allowed < glen - 1 + 1


def test_min_distance_constant_code(inst1_p2):
    inst = inst1_p2
    coeffs = np.array([[1] + [0] * (inst.D - 1)], dtype=np.int64)
    ms = MessageSpace(inst.ambient, inst.D, coeffs, 1, 1, constraint_report(coeffs, inst.G, inst.H, inst.config.r, inst.D))
    res = min_distance_exhaustive(CodewordStore(ms, inst.omega))
    assert res.value == inst.n
    assert res.mode == "full-field"


def test_min_distance_full_field_vs_prime_subcode(inst1_p2):
    # on small sub-spaces both modes run; the prime-subcode value can only
    # be >= the full minimum (observed equal at dims 1-3 on this instance)
    inst = inst1_p2
    ms = inst.message_space()
    for dims in (1, 2, 3):
        coeffs = ms.coeffs[:dims]
        sub = MessageSpace(ms.ctx, ms.D, coeffs, ms.dim_u, ms.dim_v, constraint_report(coeffs, inst.G, inst.H, inst.config.r, ms.D))
        full = min_distance_exhaustive(CodewordStore(sub, inst.omega))
        prime = min_distance_exhaustive(CodewordStore(sub, inst.omega), budget=2**dims)
        assert full.mode == "full-field" and prime.mode == "prime-subcode"
        assert prime.value >= full.value
        assert (full.value, prime.value) == {1: (48, 48), 2: (47, 47), 3: (44, 44)}[dims]


def test_min_distance_regressions(inst1_p2):
    inst = inst1_p2
    res48 = min_distance_exhaustive(CodewordStore(inst.message_space(), inst.omega))
    assert (res48.value, res48.mode) == (18, "prime-subcode")
    res40 = min_distance_exhaustive(CodewordStore(inst.message_space(D=40), inst.omega))
    assert (res40.value, res40.mode) == (30, "prime-subcode")
    # subcode monotonicity and the degree bound
    assert res40.value >= res48.value
    assert res40.value >= inst.n - 40 + 1
    assert res48.value >= inst.n - 48 + 1


def test_min_distance_budget_refusal(inst1_p2):
    inst = inst1_p2
    ms = inst.message_space(r=Fraction(3, 4))  # dim 36: 2^36 above budget
    with pytest.raises(BudgetError, match="sampl"):
        min_distance_exhaustive(CodewordStore(ms, inst.omega))


def test_min_distance_sampled_upper_bound(inst1_p2):
    inst = inst1_p2
    ms = inst.message_space()
    est = min_distance_sampled(CodewordStore(ms, inst.omega), samples=2000, seed=0)
    assert 18 <= est <= inst.n  # sampling can only overestimate the minimum


@pytest.mark.parametrize("samples", [0, -5])
def test_min_distance_sampled_refuses_fewer_than_one_sample(inst1_p2, samples):
    # no sample is drawn, so n would be reported as a bound that nothing supports
    with pytest.raises(ParameterError, match="at least one sample"):
        min_distance_sampled(CodewordStore(inst1_p2.message_space(), inst1_p2.omega), samples=samples)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("instantiation", ["I", "II"])
def test_weight_closed_form_matches_direct(p, m, instantiation):
    config = InstanceConfig(instantiation, p, m, gamma=Fraction(1) if instantiation == "II" else None)
    kmax = m * m if instantiation == "I" else m * (m + 1)
    for k in range(kmax + 1):
        assert config.weight(k) == weight_direct(k, config)


def test_weight_patterns_from_the_lemmas():
    i22, i33, ii22 = InstanceConfig("I", 2, 2), InstanceConfig("I", 3, 3), InstanceConfig("II", 2, 2, gamma=Fraction(1))
    assert [i22.weight(k) for k in range(4)] == [2, 2, 2, 2]
    assert [i33.weight(k) for k in range(6)] == [3, 9, 9, 3, 9, 9]
    assert [ii22.weight(k) for k in range(6)] == [4, 2, 4, 4, 2, 4]


def test_monomial_count_degenerate_rates(inst1_p2):
    config, D = inst1_p2.config, inst1_p2.D
    assert monomial_count(config, D, r=Fraction(0)) == 0
    assert monomial_count(config, D, r=Fraction(-1, 2)) == 0
    # any positive rate admits at least the constant monomial
    assert monomial_count(config, D, r=Fraction(1, 1000)) == 1


def test_monomial_count_le_dimension(all_instances):
    for inst in all_instances:
        for r in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            assert monomial_count(inst.config, inst.D, r=r) <= inst.message_space(r=r).dim


def test_monomial_count_regressions(inst1_p2, inst1_p3, inst2_p2):
    # at D = n and r = 1/4, 1/3, 1/2, 2/3; on I the g-cap j < r|G| never binds
    rates = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    for inst, counts in ((inst1_p2, [1, 1, 2, 2]), (inst1_p3, [2, 3, 8, 18]), (inst2_p2, [1, 4, 6, 15])):
        assert [monomial_count(inst.config, inst.D, r=r) for r in rates] == counts


def test_monomial_count_matches_the_listed_monomials(all_instances):
    # the count sums each i's largest j; the oracle lists every (i, j) against the rational bounds
    rates = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    degenerate = [Fraction(0), Fraction(-1, 2), Fraction(1, 1000), Fraction(1), Fraction(3, 2)]
    for inst in all_instances:
        for D in (1, inst.G.size + 1, inst.D // 3, inst.D):
            for r in rates + degenerate:
                assert monomial_count(inst.config, D, r=r) == len(digit_weighted_monomials(inst.config, D, r))


def test_monomials_are_sound_and_distinct_degrees(inst1_p2, inst1_p3):
    rng = random.Random(7)
    for inst in (inst1_p2, inst1_p3):
        r = Fraction(3, 4)
        monos = digit_weighted_monomials(inst.config, inst.D, r)
        degrees = {i * inst.G.size + j for i, j in monos}
        assert len(degrees) == len(monos)
        sample = monos if len(monos) <= 100 else rng.sample(monos, 100)
        for i, j in sample:
            assert monomial_is_sound(i, j, inst.config, inst.D, r)


def test_counted_monomials_lie_in_message_space(inst1_p2):
    # every counted monomial, encoded, passes the independent constraint check
    inst = inst1_p2
    g = row_poly(inst.ambient, inst.G.g)
    for i, j in digit_weighted_monomials(inst.config, inst.D, inst.config.r):
        f = (g**i).shift(j)
        rep = constraint_report(poly_digits(f).T, inst.G, inst.H, inst.config.r, inst.D)
        assert rep["all_ok"]
