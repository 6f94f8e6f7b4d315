"""Closed-form bounds against the Monte Carlo and quadrature oracles."""

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from oracles import polytope_indicator_i, polytope_indicator_ii, volume_monte_carlo
from orbitcodes.bounds import (
    bound_report,
    counting_baseline,
    distance_bounds,
    rate_lower_bound,
    volume_i,
    volume_ii,
)
from orbitcodes.errors import ParameterError

HALF = Fraction(1, 2)
ONE = Fraction(1)


def test_volume_i_plateau_value():
    # at rho >= r the slab constraint is inactive: r^(C+1)/(C+1)!
    v = volume_i(HALF, ONE, 2)
    assert v == Fraction(1, 2) ** 5 / 120
    assert float(v) == pytest.approx(2.6042e-4, rel=1e-4)


def test_volume_i_saturation_and_monotonicity():
    for rho1, rho2 in ((HALF, Fraction(3, 4)), (Fraction(3, 4), ONE)):
        assert volume_i(HALF, rho1, 2) == volume_i(HALF, rho2, 2)  # plateau above r
    grid = [Fraction(k, 10) for k in range(1, 11)]
    vals = [volume_i(HALF, rho, 2) for rho in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_volume_i_degenerate_slab_limit():
    assert volume_i(HALF, Fraction(1, 10**6), 2) < Fraction(1, 10**6)


def test_volume_i_validation():
    with pytest.raises(ParameterError):
        volume_i(Fraction(0), ONE, 2)
    with pytest.raises(ParameterError):
        volume_i(HALF, ONE, 1)


def test_volume_ii_values():
    v = volume_ii(HALF, ONE, 2, ONE)
    assert v == Fraction(1, 2) * Fraction(1, 2) ** 5 / 120
    assert float(v) == pytest.approx(1.3021e-4, rel=1e-4)
    # gamma -> 0 collapses the polytope
    assert volume_ii(HALF, ONE, 2, Fraction(1, 1000)) < Fraction(1, 10**12)


def test_rate_lower_bounds():
    # instantiation I at the plateau: r^(2m+1)/(2m+1)!
    assert rate_lower_bound("I", HALF, ONE, 2) == Fraction(1, 2) ** 5 / 120
    # instantiation II at gamma = 1, rho >= r: r^(2m+2)/(2m+1)!
    assert rate_lower_bound("II", HALF, ONE, 2, ONE) == Fraction(1, 2) ** 6 / 120


def test_counting_baseline():
    assert counting_baseline(HALF, 48, 48) == 0
    assert counting_baseline(Fraction(3, 4), 48, 48) == Fraction(1, 2)
    assert counting_baseline(Fraction(1, 4), 48, 48) == 0
    assert counting_baseline(Fraction(3, 4), 40, 48) == Fraction(2 * 30 - 40, 48)


def test_distance_bounds():
    alg, exp = distance_bounds(HALF, ONE, 0.0)
    assert alg == 0 and exp == pytest.approx(0.25)
    alg, exp = distance_bounds(HALF, Fraction(5, 6), 0.6)
    assert alg == Fraction(1, 6)
    assert exp == 0.0  # sigma2 >= 1-r clips to zero
    alg, _ = distance_bounds(HALF, Fraction(5, 6), 0.0)
    assert float(alg) * 48 == pytest.approx(8.0)  # distance >= n - D + 1 = 9 via ceil


def test_bound_report_fields_in_range():
    doc = bound_report("II", 2, HALF, Fraction(5, 6), gamma=ONE, sigma2=0.3, D=40, n=48)
    for key in ("volume", "rate_lb_polytope", "rate_lb_counting", "dist_lb_algebraic", "dist_lb_expander"):
        assert 0 <= doc[key] <= 1
    assert doc["dist_lb_combined"] == max(doc["dist_lb_algebraic"], doc["dist_lb_expander"])
    assert doc["volume"] == float(volume_ii(HALF, Fraction(5, 6), 2, ONE))
    assert doc["rate_lb_polytope"] == float(rate_lower_bound("II", HALF, Fraction(5, 6), 2, ONE))


def test_bound_report_refuses_a_missing_gamma_or_an_unknown_instantiation():
    with pytest.raises(ParameterError, match="needs gamma"):
        bound_report("II", 2, HALF, ONE, gamma=None)
    with pytest.raises(ParameterError, match="unknown instantiation"):
        bound_report("III", 2, HALF, ONE)


def test_monte_carlo_unit_cube():
    est, se = volume_monte_carlo(3, lambda pts: pts[:, 0] >= 0.0, samples=100_000, seed=0)
    assert est == 1.0


def test_monte_carlo_matches_volume_i():
    dim, member = polytope_indicator_i(HALF, ONE, 2)
    est, se = volume_monte_carlo(dim, member, samples=2_000_000, seed=0)
    assert abs(est - float(volume_i(HALF, ONE, 2))) <= 3 * se


def test_monte_carlo_matches_volume_ii():
    dim, member = polytope_indicator_ii(HALF, ONE, 2, ONE)
    est, se = volume_monte_carlo(dim, member, samples=2_000_000, seed=0)
    assert abs(est - float(volume_ii(HALF, ONE, 2, ONE))) <= 3 * se


def test_simplex_integration_identity():
    # int_0^(r-y) (r-y-t)^(C-1)/(C-1)! dt = (r-y)^C/C!, the induction step
    # behind both volume formulas
    rng = random.Random(0)
    for c in range(2, 7):
        for _ in range(10):
            r = rng.uniform(0.2, 1.0)
            y = rng.uniform(0.0, r)
            val, _ = quad(lambda t: (r - y - t) ** (c - 1) / math.factorial(c - 1), 0, r - y)
            assert abs(val - (r - y) ** c / math.factorial(c)) <= 1e-8
