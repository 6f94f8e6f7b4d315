"""Closed-form rate and distance bounds.

The rate lower bounds come from the volume of the constraint polytope on
the dominant digit variables: with C+1 integration variables the volume is

    (r^(C+1) - max(0, r - rho)^(C+1)) / (C+1)!        (balanced, C = 2m)

and for the tunable construction, with the decoupled z variable
contributing a factor r,

    gamma^(2m+1) * r * (r^(2m+1) - max(0, r-rho)^(2m+1)) / (2m+1)!

Both saturate once rho exceeds r.  Closed forms are exact rationals; the
tests check them against a Monte Carlo estimator.  Distance bounds
combine the degree (Singleton-type) bound 1 - rho with the expander bound
(1-r) * ((1-r) - sigma_2), clipped at zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

from orbitcodes.errors import ParameterError


def _validate(r: Fraction, rho: Fraction, m: int, gamma: Fraction | None = None):
    if not (0 < r < 1):
        raise ParameterError(f"r must lie in (0, 1), got {r}")
    if not (0 < rho <= 1):
        raise ParameterError(f"rho must lie in (0, 1], got {rho}")
    if m < 2:
        raise ParameterError(f"m must be >= 2, got {m}")
    if gamma is not None and not (0 < gamma <= 1):
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma}")


def volume_i(r: Fraction, rho: Fraction, m: int) -> Fraction:
    """Polytope volume / asymptotic rate lower bound, balanced construction."""
    r, rho = Fraction(r), Fraction(rho)
    _validate(r, rho, m)
    c = 2 * m
    return (r ** (c + 1) - max(Fraction(0), r - rho) ** (c + 1)) / math.factorial(c + 1)


def volume_ii(r: Fraction, rho: Fraction, m: int, gamma: Fraction) -> Fraction:
    """Polytope volume for the tunable construction (rate bound is this / gamma)."""
    r, rho, gamma = Fraction(r), Fraction(rho), Fraction(gamma)
    _validate(r, rho, m, gamma)
    w = 2 * m + 1
    return gamma**w * r * (r**w - max(Fraction(0), r - rho) ** w) / math.factorial(w)


def rate_lower_bound(instantiation: str, r: Fraction, rho: Fraction, m: int, gamma: Fraction | None = None) -> Fraction:
    """Asymptotic global-rate lower bound for either instantiation."""
    if instantiation == "I":
        return volume_i(r, rho, m)
    if instantiation == "II":
        if gamma is None:
            raise ParameterError("instantiation II needs gamma")
        return volume_ii(r, rho, m, gamma) / gamma
    raise ParameterError(f"unknown instantiation {instantiation!r}")


def counting_baseline(r: Fraction, D: int, n: int) -> Fraction:
    """Finite-length constraint-counting rate guarantee max(0, 2*floor(D*r) - D)/n.

    Nonpositive (clipped to 0) whenever r <= 1/2 and D = n: the regime the
    polytope bound exists to rescue.
    """
    if D > n:
        raise ParameterError("D must not exceed n")
    guaranteed = 2 * math.floor(Fraction(r) * D) - D
    return max(Fraction(0), Fraction(guaranteed, n))


def distance_bounds(r: Fraction, rho: Fraction, sigma2: float) -> tuple[Fraction, float]:
    """(algebraic, expander) relative-distance lower bounds.

    algebraic = 1 - rho from the global degree constraint; expander =
    (1-r) * ((1-r) - sigma2) clipped at 0, which tends to (1-r)^2 as the
    spectral gap opens.
    """
    r, rho = Fraction(r), Fraction(rho)
    if not (0 <= rho <= 1) or not (0 <= r <= 1):
        raise ParameterError("r, rho must lie in [0, 1]")
    algebraic = 1 - rho
    local = 1 - r
    expander = max(0.0, float(local) * (float(local) - sigma2))
    return algebraic, expander


def bound_report(
    instantiation: str,
    m: int,
    r: Fraction,
    rho: Fraction,
    gamma: Fraction | None = None,
    sigma2: float = 0.0,
    D: int | None = None,
    n: int | None = None,
) -> dict:
    """The closed-form bounds at one parameter point, as the rate section writes them and sweep reads them.

    rate_lb_counting is None unless both D and n are given (an asymptotic sweep gives neither).
    """
    rate_lb = rate_lower_bound(instantiation, r, rho, m, gamma)
    volume = volume_ii(r, rho, m, gamma) if instantiation == "II" else rate_lb
    algebraic, expander = distance_bounds(r, rho, sigma2)
    return {
        "instantiation": instantiation,
        "m": m,
        "r": str(Fraction(r)),
        "rho": str(Fraction(rho)),
        "gamma": None if gamma is None else str(Fraction(gamma)),
        "volume": float(volume),
        "rate_lb_polytope": float(rate_lb),
        "rate_lb_counting": None if D is None or n is None else float(counting_baseline(r, D, n)),
        "dist_lb_algebraic": float(algebraic),
        "dist_lb_expander": expander,
        "dist_lb_combined": max(float(algebraic), expander),
    }
