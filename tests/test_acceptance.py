"""Acceptance suite: the quantitative claims, each at its stated tolerance.

Every test prints one [PASS]/[FAIL] line (visible with -v via captured
output, or with -s).
"""

import math
import random
import time
from fractions import Fraction

from oracles import (
    Poly,
    base_degree,
    base_expand,
    divisors,
    kernel_base_degree,
    polytope_indicator_i,
    polytope_indicator_ii,
    sigma2_svd,
    volume_monte_carlo,
    weight_direct,
)
from orbitcodes.bounds import volume_i, volume_ii
from orbitcodes.codecore import (
    CodewordStore,
    check_local_rs,
    constraint_report,
    encode_basis_digits,
    min_distance_exhaustive,
    monomial_count,
    schur_check,
)
from orbitcodes.cosetgraph import char_sum_max, sigma2_exact
from orbitcodes.gf import build_field
from orbitcodes.groupgeom import scaling_subgroup
from orbitcodes.instance import InstanceConfig, build_instance
from orbitcodes.report import spectrum_section

TOL = 1e-9
HALF = Fraction(1, 2)


def _line(num: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    return ok


def test_01_instance_construction_balanced():
    t0 = time.perf_counter()
    inst = build_instance(InstanceConfig("I", 2, 2, r=HALF))
    elapsed = time.perf_counter() - t0
    g = inst.graph
    facts = {
        "|G|": inst.G.size == 4,
        "|H|": inst.H.order == 3,
        "|S|": inst.S.size == 16,
        "n": inst.n == 48,
        "simple": g.is_simple,
        "left": g.n_left == 12,
        "right": g.n_right == 16,
        "biregular": (g.left_degree, g.right_degree) == (4, 3),
        "runtime": elapsed < 1.0,
    }
    ok = all(facts.values())
    assert _line("1", ok, f"balanced p=2 m=2 sizes {facts}, built in {elapsed:.3f}s"), facts


def test_02_instance_construction_tunable():
    t0 = time.perf_counter()
    inst = build_instance(InstanceConfig("II", 2, 2, r=HALF, gamma=Fraction(1)))
    elapsed = time.perf_counter() - t0
    g = inst.graph
    subfield = all(x**64 == x for x in inst.ambient.elements_of(inst.S.points()))
    facts = {
        "S=F64": inst.S.size == 64 and subfield,
        "n": inst.n == 448,
        "degrees": (g.left_degree, g.right_degree) == (4, 7),
        "left": g.n_left == 112,
        "right": g.n_right == 64,
        "runtime": elapsed < 5.0,
    }
    ok = all(facts.values())
    assert _line("2", ok, f"tunable p=2 m=2 gamma=1 sizes {facts}, built in {elapsed:.3f}s"), facts


def test_03_spectral_oracle_agreement(all_instances):
    t0 = time.perf_counter()
    gaps = []
    for inst in all_instances:
        exact = sigma2_exact(inst.G, inst.A)
        svd = sigma2_svd(inst.graph)
        gaps.append(abs(exact.value - svd))
    elapsed = time.perf_counter() - t0
    ok = all(gap <= TOL for gap in gaps) and elapsed < 60.0
    assert _line("3", ok, f"character vs SVD gaps {['%.2e' % g for g in gaps]} in {elapsed:.1f}s"), gaps


def test_04_spectral_bounds_and_character_sums(all_instances):
    details = []
    ok = True
    for inst in all_instances:
        exact = sigma2_exact(inst.G, inst.A)
        m_res = char_sum_max(inst.H)
        bound = spectrum_section(inst)["bound_instance"]
        ok &= exact.value <= bound + TOL
        details.append(f"{inst.config.instantiation}@p{inst.config.p}: {exact.value:.6f}<={bound:.6f}")
        if inst.config.instantiation == "I":
            ok &= m_res.sq_exact == 1  # orthogonality: M = 1 exactly
    for p, k in ((2, 3), (3, 2), (2, 4), (3, 3)):
        ctx = build_field(p, k)
        for d in divisors(ctx.order - 1):
            res = char_sum_max(scaling_subgroup(ctx, d))
            ok &= res.value <= math.sqrt(ctx.order) + TOL
    details.append("Gauss bound over all subgroups of F8,F9,F16,F27")
    assert _line("4", ok, "; ".join(details))


def test_05_base_degree_subadditivity_and_reconstruction():
    rng = random.Random(20240809)
    checked = 0
    ok = True
    for p in (2, 3):
        ctx = build_field(p, 1)

        def rand_poly(max_deg):
            deg = rng.randrange(0, max_deg + 1)
            return Poly(ctx, [ctx.from_int(rng.randrange(p)) for _ in range(deg + 1)])

        for _ in range(1000):
            u = Poly(ctx, [ctx.from_int(rng.randrange(p)) for _ in range(rng.randrange(2, 9))] + [ctx.one()])
            f, g = rand_poly(24), rand_poly(24)
            if not f.is_zero() and not g.is_zero():
                ok &= base_degree(f * g, u) <= base_degree(f, u) + base_degree(g, u)
                ok &= kernel_base_degree(f * g, u) <= kernel_base_degree(f, u) + kernel_base_degree(g, u)
            exp = base_expand(f, u)
            ok &= exp.reconstruct() == f
            ok &= kernel_base_degree(f, u) == exp.max_digit_degree
            checked += 1
    assert _line("5", ok, f"subadditivity and reconstruction on {checked} random triples over F2/F3")


def test_06_weight_lemmas():
    t0 = time.perf_counter()
    ok = True
    for p, m in ((2, 2), (3, 2), (2, 3)):
        for config, kmax in ((InstanceConfig("I", p, m), m * m), (InstanceConfig("II", p, m, gamma=Fraction(1)), m * (m + 1))):
            for k in range(kmax + 1):
                ok &= config.weight(k) == weight_direct(k, config)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert _line("6", ok, f"closed-form weights equal direct expansions at (2,2),(3,2),(2,3) in {elapsed:.1f}s")


def test_07_rate_chain(all_instances):
    ok = True
    details = []
    for inst in all_instances:
        n = inst.n
        for r in (Fraction(1, 4), HALF, Fraction(3, 4)):
            for D in (n, 5 * n // 6):
                ms = inst.message_space(r=r, D=D)
                count = monomial_count(inst.config, D, r=r)
                floor = 2 * math.floor(r * D) - D
                ok &= count <= ms.dim
                ok &= ms.dim >= max(0, floor)
                ok &= constraint_report(ms.coeffs, inst.G, inst.H, r, D)["all_ok"]
        details.append(f"{inst.config.instantiation}@p{inst.config.p}")
    assert _line("7", ok, f"count<=dim, counting floor, per-basis deg_u checks on {details}")


def test_08_locality_and_schur(inst1_p2):
    t0 = time.perf_counter()
    inst = inst1_p2
    ms = inst.message_space()
    r = inst.config.r
    words = encode_basis_digits(inst.ambient, ms.coeffs, inst.omega)
    ok = True
    for cw in words:
        rep = check_local_rs(inst.ambient, cw, inst.local_maps, r)
        ok &= rep.all_ok and len(rep.vertices) == 28
    rng = random.Random(8)
    for _ in range(10):
        i, j = rng.randrange(ms.dim), rng.randrange(ms.dim)
        ok &= schur_check(inst.ambient, words[i], words[j], inst.local_maps, r).all_ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _line("8", ok, f"{ms.dim} basis codewords x 28 vertices + 10 Schur pairs in {elapsed:.1f}s")


def test_09_distance(inst1_p2):
    inst = inst1_p2
    sigma2 = sigma2_exact(inst.G, inst.A).value
    results = {}
    ok = True
    for D in (48, 40):
        res = min_distance_exhaustive(CodewordStore(inst.message_space(D=D), inst.omega))
        results[D] = res.value
        ok &= res.value >= inst.n - D + 1
        expander = math.ceil(inst.n * (1 - HALF) * max(0.0, float(1 - HALF) - sigma2) - 1e-12)
        ok &= res.value >= expander
        ok &= res.enumerated <= 1 << 24
    ok &= results[40] >= results[48]  # subcode monotonicity
    assert _line("9", ok, f"exhaustive distances {results} vs bounds n-D+1 and expander (sigma2={sigma2:.4f})")


def test_10_volume_formulas_vs_monte_carlo():
    points_i = [
        (HALF, Fraction(1), 2),
        (HALF, HALF, 2),  # rho = r boundary
        (HALF, Fraction(1, 4), 2),
        (Fraction(3, 4), Fraction(1), 2),
        (Fraction(3, 4), HALF, 3),
    ]
    points_ii = [
        (HALF, Fraction(1), 2, Fraction(1)),
        (HALF, Fraction(3, 4), 2, Fraction(1)),  # plateau above r
        (HALF, Fraction(1, 4), 2, Fraction(1)),
        (Fraction(3, 4), Fraction(1), 2, Fraction(1)),
        (Fraction(3, 4), Fraction(1), 2, HALF),
    ]
    ok = True
    worst = 0.0
    for idx, (r, rho, m) in enumerate(points_i):
        dim, member = polytope_indicator_i(r, rho, m)
        est, se = volume_monte_carlo(dim, member, samples=10_000_000, seed=100 + idx)
        dev = abs(est - float(volume_i(r, rho, m))) / se
        worst = max(worst, dev)
        ok &= dev <= 3.0
    for idx, (r, rho, m, gamma) in enumerate(points_ii):
        dim, member = polytope_indicator_ii(r, rho, m, gamma)
        est, se = volume_monte_carlo(dim, member, samples=10_000_000, seed=200 + idx)
        dev = abs(est - float(volume_ii(r, rho, m, gamma))) / se
        worst = max(worst, dev)
        ok &= dev <= 3.0
    assert _line("10", ok, f"10 parameter points x 1e7 samples, worst deviation {worst:.2f} standard errors")


def _normalized_counts():
    out = {}
    for p in (2, 3, 5):
        n = p**4 * (p**2 - 1)
        out[p] = monomial_count(InstanceConfig("I", p, 2, r=HALF), n) / p**6
    return out


def _lattice_count_i(p: int) -> int:
    """Closed form of the (I, m=2, r=1/2, D=n) monomial count.

    Every digit weight is p, so the count is #{(d_0..d_3, j) >= 0 :
    p*(d_0+..+d_3) + j < B} with B = r|H| = (p^2-1)/2, i.e.
    N(p) = sum_{s >= 0, ps < B} C(s+3, 3) * ceil(B - ps).
    """
    B = Fraction(p * p - 1, 2)
    return sum(math.comb(s + 3, 3) * math.ceil(B - p * s) for s in range(p) if p * s < B)


def test_11_convergence_trend():
    """The normalized count N(p)/p^6 at (m=2, r=1/2, rho=1) tends to the volume.

    The unit cubes [x, x+1) over the lattice points counted by N(p) contain
    {y >= 0 : p*sum(y_d) + y_j < B} and lie inside {... < B + 4p + 1};
    the two simplices have volume B^5/(5! p^4) and (B+4p+1)^5/(5! p^4), so
    vol*(1 - 1/p^2)^5 <= N(p)/p^6 <= vol*(1 + 8/p + 1/p^2)^5, vol = 1/3840.
    Both ends tend to vol, and the lower end stays positive: the rate is
    bounded away from 0 at r = 1/2, where the counting bound gives nothing.
    At finite p the strict-inequality count over-covers the simplex, so the
    sequence approaches vol from above.  The envelope is too loose to pin
    vol for p <= 11; the closed form alone at p in {101, 1009} does.
    """
    vol = volume_i(HALF, Fraction(1), 2)

    def envelope(p):
        return vol * (1 - Fraction(1, p * p)) ** 5, vol * (1 + Fraction(8, p) + Fraction(1, p * p)) ** 5

    ok = True
    ratios = {}
    for p in (2, 3, 5, 7, 11):
        n = p**4 * (p**2 - 1)
        count, expected = monomial_count(InstanceConfig("I", p, 2, r=HALF), n), _lattice_count_i(p)
        assert count == expected, f"p={p}: monomial_count {count} != closed form {expected}"
        lo, hi = envelope(p)
        ratios[p] = Fraction(count, p**6)
        ok &= lo <= ratios[p] <= hi
        ok &= Fraction(count, n) >= lo > 0
    for p in (101, 1009):
        lo, hi = envelope(p)
        ratios[p] = Fraction(_lattice_count_i(p), p**6)
        ok &= lo <= ratios[p] <= hi
    detail = ", ".join(f"p={p}: {float(v / vol):.4g}" for p, v in ratios.items())
    assert _line("11", ok, f"count/p^6 in units of volume {float(vol):.6f}: {detail}")


def test_11b_convergence_trend_measured():
    """Exact-count regression: the measured ratios decrease toward the volume."""
    ratios = _normalized_counts()
    n7 = 7**4 * (7**2 - 1)
    ratios[7] = monomial_count(InstanceConfig("I", 7, 2, r=HALF), n7) / 7**6
    vol = float(volume_i(HALF, Fraction(1), 2))
    counts = {2: 2, 3: 8, 5: 60, 7: 252}
    ok = all(abs(ratios[p] - counts[p] / p**6) < 1e-15 for p in counts)
    seq = [ratios[p] for p in (2, 3, 5, 7)]
    ok &= all(a > b for a, b in zip(seq, seq[1:]))  # strictly decreasing
    ok &= all(v > vol for v in seq)  # approaches the volume from above
    gaps = [v - vol for v in seq]
    ok &= all(a > b for a, b in zip(gaps, gaps[1:]))  # and converges
    assert _line("11b", ok, f"counts {counts}, ratios decrease toward {vol:.6f} from above")
