"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import math
import time

import numpy as np

from smile_domain import (
    durrleman_check,
    fukasawa_threshold,
    hgg2,
    sigma_star,
)
from smile_domain.core import NormalizedSvi
from smile_domain import extremal as ext
from smile_domain import ssvi as ss
from smile_domain import symmetric as sym
from smile_domain import vanishing as van
from smile_domain.extremal import ExtremalParams
from smile_domain.ssvi import HestonLtParams, SsviParams
from smile_domain.symmetric import SymmetricParams
from smile_domain.vanishing import VanishingParams

DENSITY_TOL = -1e-8


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _durrleman_min_b1(mu: float, sigma: float) -> float:
    """Minimum of Durrleman's g(k) for w(k) = (k-m) + sqrt((k-m)^2 + sigma^2),
    m = mu*sigma, over a fixed log grid of |k| in [1e-2, 1e6] on both sides
    and k = 0.  w, w', w'' are written out by hand and evaluated in mpmath,
    independently of the library's shape functions."""
    from mpmath import mp, mpf, sqrt as msqrt

    with mp.workdps(50):
        s = mpf(sigma)
        m = mpf(mu) * s
        ks = [mpf(0)] + [
            sign * mpf(10) ** (mpf(e) / 20) for e in range(-40, 121) for sign in (1, -1)
        ]

        def g(k):
            d = k - m
            r = msqrt(d * d + s * s)
            w = d + r
            w1 = 1 + d / r
            w2 = s * s / r**3
            return (1 - k * w1 / (2 * w)) ** 2 - w1 * w1 / 4 * (1 / w + mpf(1) / 4) + w2 / 2

        return float(min(g(k) for k in ks))


def test_criterion_01_vanishing_b1_closed_form():
    # At b = 1, rho = 1, gamma = 0 the requirement -b*g2/(2*G1) has no
    # interior maximum: as l -> +inf, G1 ~ -mu/(2l) and g2 ~ -1/l, so its
    # supremum is the limit -1/mu.  In raw terms the domain is m <= -1,
    # whatever sigma is.
    mus = (-0.5, -1.0, -2.0)
    expected = {mu: -1.0 / mu for mu in mus}
    t0 = time.perf_counter()
    results = {mu: sigma_star(0.0, 1.0, 1.0, mu).sigma_star for mu in mus}
    elapsed = time.perf_counter() - t0
    certified = {
        mu: van.certify(VanishingParams(b=1.0, mu=mu, sigma=expected[mu])).bounds["sigma_star"]
        for mu in mus
    }
    # exact density witness: no arbitrage just above the threshold, a
    # negative density just below it
    above = {mu: _durrleman_min_b1(mu, 1.01 * expected[mu]) for mu in mus}
    below = {mu: _durrleman_min_b1(mu, 0.99 * expected[mu]) for mu in mus}
    ok = (
        elapsed < 1.0
        and all(
            abs(results[mu] - expected[mu]) <= 1e-6 * expected[mu]
            and abs(certified[mu] - expected[mu]) <= 1e-6 * expected[mu]
            and above[mu] >= 0.0
            and below[mu] < 0.0
            for mu in mus
        )
    )
    _report(
        1,
        ok,
        f"vanishing b=1 oracle and certifier vs -1/mu (oracle {results}, "
        f"certifier {certified}, min g at 1.01x {above}, at 0.99x {below}, "
        f"{elapsed:.2f}s)",
    )


def test_criterion_02_vanishing_parametrization_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for b in (0.2, 0.5, 0.8):
        x0 = van.x_plus_star(b)
        for t in np.linspace(0.05, 0.95, 10):
            x = x0 + float(t) * (1.0 - x0)
            closed = van.sigma_star_closed(x, b)
            res = sigma_star(0.0, b, 1.0, van.mu_star(x, b))
            worst = max(worst, abs(closed - res.sigma_star) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(2, ok, f"vanishing closed vs oracle, worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_vanishing_subdomain_dominates():
    ok = True
    for b in (0.2, 0.5, 0.8):
        x = van.x_from_mu(0.0, b)
        ok &= van.sigma_star_closed(x, b) <= van.subdomain_bound(b) + 1e-12
    _report(3, ok, "explicit sub-domain level above the exact threshold")


def test_criterion_04_extremal_oracle_grid():
    t0 = time.perf_counter()
    worst = 0.0
    sides_ok = True
    for gamma in np.linspace(0.5, 4.0, 5):
        for q in np.linspace(-0.8, 0.8, 5):
            gamma_f, q_f = float(gamma), float(q)
            res = sigma_star(gamma_f, 2.0, 0.0, q_f * gamma_f)
            bound = ext.sigma_bound(gamma_f, q_f)
            worst = max(worst, abs(res.sigma_star - bound) / bound)
            expected_arg = math.inf if q_f >= 0 else -math.inf
            sides_ok &= res.side == "limit_at_infinity" and res.argsup_l == expected_arg
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and sides_ok and elapsed < 5.0
    _report(4, ok, f"extremal oracle grid, worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_symmetric_threshold_round_trip():
    worst_rt = max(
        abs(sym.fukasawa_threshold_closed(sym.g_tilde(float(g))) - float(g))
        for g in np.linspace(-0.95, 0.0, 20)
    )
    worst_bis = max(
        abs(fukasawa_threshold(b, 0.0) - sym.fukasawa_threshold_closed(b))
        for b in (0.1, 0.5, 1.0, 1.5, 1.9)
    )
    ok = worst_rt <= 1e-10 and worst_bis <= 1e-8
    _report(5, ok, f"threshold round trip {worst_rt:.2e}, numerical threshold gap {worst_bis:.2e}")


def test_criterion_06_symmetric_sigma_star_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (-0.95, sym.GAMMA_HAT, -0.5, 0.5, 2.0):
        if abs(gamma - sym.GAMMA_HAT) <= 1e-12:
            # frozen critical point: sweep the wing level instead
            for b in np.linspace(0.1, 0.98 * sym.B_HAT_MAX, 5):
                closed = sym.sigma_star_closed(sym.Z_HAT, gamma, b=float(b))
                res = sigma_star(gamma, float(b), 0.0, 0.0)
                worst = max(worst, abs(closed - res.sigma_star) / closed)
            continue
        za, zb = sym.z_interval(gamma)
        for t in np.linspace(0.15, 0.85, 5):
            z = za + float(t) * (zb - za)
            b = sym.b_star(z, gamma)
            closed = sym.sigma_star_closed(z, gamma)
            res = sigma_star(gamma, b, 0.0, 0.0)
            worst = max(worst, abs(closed - res.sigma_star) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 20.0
    _report(6, ok, f"symmetric closed vs oracle, worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_ssvi_closed_forms():
    worst_l2 = 0.0
    for rho in np.linspace(0.0, 0.999, 50):
        rho_f = float(rho)
        l2 = ss.l2_closed(rho_f)
        root = math.sqrt(1 - rho_f * rho_f)
        nsvi = NormalizedSvi(gamma=root, b=1.0, rho=rho_f, mu=-rho_f / root, sigma=1.0)
        worst_l2 = max(worst_l2, abs(hgg2(l2, nsvi)[2]))
    m2_ok = (
        abs(ss.m2(0.0) - math.sqrt(math.sqrt(7.0) / 18.0 + 7.0 / 9.0)) <= 1e-12
        and abs(ss.m2(1.0) - (2.0 + math.sqrt(10.0)) / 6.0) <= 1e-12
        and abs(ss.m2(2.0 / math.sqrt(5.0)) - 2.0 / math.sqrt(5.0)) <= 1e-12
    )
    lbar_ok = abs(ss.l_bar_zero(0.0) - math.sqrt(9.0 + 4.0 * math.sqrt(6.0))) <= 1e-10
    ok = worst_l2 <= 1e-12 and m2_ok and lbar_ok
    _report(7, ok, f"ssvi closed forms, worst |g2(l2)| {worst_l2:.2e}")


def test_criterion_08_ssvi_boundary_oracle():
    worst = 0.0
    sides_ok = True
    for rho in (0.0, 0.3, 0.6, 0.9):
        root = math.sqrt(1 - rho * rho)
        res = sigma_star(root, 2.0 / (1.0 + rho), rho, -rho / root)
        worst = max(worst, abs(res.sigma_star - root) / root)
        sides_ok &= res.side == "limit_at_infinity" and res.argsup_l == math.inf
    ok = worst <= 1e-6 and sides_ok
    _report(8, ok, f"ssvi boundary sigma*, worst rel {worst:.2e}")


def test_criterion_09_uniqueness_scan_full_grid():
    t0 = time.perf_counter()
    report = ss.scan_uniqueness(1000, 1000)
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.message == "There is unicity" and elapsed < 60.0
    _report(
        9,
        ok,
        f"1000x1000 scan min {report.min_value:.3e}, "
        f"'{report.message}', {elapsed:.2f}s",
    )


def _draw_vanishing(rng):
    direction = "upward" if rng.random() < 0.5 else "downward"
    sgn = 1.0 if direction == "upward" else -1.0
    b = rng.uniform(0.05, 0.98)
    mu_up = van.fukasawa_bound(b) - rng.uniform(0.05, 3.0)
    star = van.sigma_star_closed(van.x_from_mu(mu_up, b), b)
    factor = rng.choice([0.75, 0.9, 1.1, 1.5])
    return VanishingParams(b=b, mu=sgn * mu_up, sigma=factor * star, direction=direction)


def _draw_extremal(rng):
    gamma = rng.uniform(0.3, 4.0)
    q = rng.uniform(-0.85, 0.85)
    factor = rng.choice([0.75, 0.9, 1.1, 1.5])
    return ExtremalParams(gamma=gamma, q=q, sigma=factor * ext.sigma_bound(gamma, q))


def _draw_symmetric(rng):
    while True:
        gamma = rng.uniform(-0.99, 3.0)
        b = rng.uniform(0.05, 0.97) * sym.g_tilde(gamma)
        probe = sym.certify(SymmetricParams(gamma=gamma, b=b, sigma=1.0))
        star = probe.bounds["sigma_star"]
        if math.isfinite(star):
            factor = rng.choice([0.75, 0.9, 1.1, 1.5])
            return SymmetricParams(gamma=gamma, b=b, sigma=factor * star)


def _draw_ssvi(rng):
    rho = rng.uniform(-0.9, 0.9)
    b = rng.uniform(0.1, 0.97) * 2.0 / (1.0 + abs(rho))
    star = ss.sigma_star_closed(ss.l_from_b(b, abs(rho)), abs(rho))
    factor = rng.choice([0.75, 0.9, 1.1, 1.5])
    sigma = factor * star
    phi = math.sqrt(1 - rho * rho) / sigma
    return SsviParams(theta=2.0 * b / phi, phi=phi, rho=rho)


def _inverted(p):
    if isinstance(p, VanishingParams):
        direction = "downward" if p.direction == "upward" else "upward"
        return VanishingParams(b=p.b, mu=-p.mu, sigma=p.sigma, direction=direction)
    if isinstance(p, ExtremalParams):
        return ExtremalParams(gamma=p.gamma, q=-p.q, sigma=p.sigma)
    if isinstance(p, SymmetricParams):
        return p
    return SsviParams(theta=p.theta, phi=p.phi, rho=-p.rho)


def test_criterion_10_implication_chain():
    rng = np.random.default_rng(2024)
    families = {
        "vanishing": (_draw_vanishing, van.certify),
        "extremal": (_draw_extremal, ext.certify),
        "symmetric": (_draw_symmetric, sym.certify),
        "ssvi": (_draw_ssvi, ss.certify),
    }
    ok = True
    for name, (draw, certify) in families.items():
        for _ in range(200):
            p = draw(rng)
            cert = certify(p)
            density_ok = durrleman_check(cert.params_raw).min_value >= DENSITY_TOL
            ok &= cert.passed == density_ok
            ok &= cert.passed == certify(_inverted(p)).passed
            if isinstance(p, SsviParams):
                if ss.gj_sufficient(p):
                    ok &= cert.passed
                if ss.subdomain_check(p):
                    ok &= cert.passed
            if isinstance(p, VanishingParams):
                if van.subdomain_check(p.b, p.mu, p.sigma, p.direction):
                    ok &= cert.passed
            if not ok:
                break
    _report(10, ok, "gj/subdomain => certify, certify <=> density, inversion-stable")


def test_criterion_11_long_term_heston():
    rng = np.random.default_rng(99)
    ok = True
    done = 0
    while done < 10:
        h = HestonLtParams(
            kappa=rng.uniform(0.5, 3.0),
            theta_bar=rng.uniform(0.01, 0.2),
            sigma_vol=rng.uniform(0.1, 1.0),
            rho=rng.uniform(-0.8, 0.8),
        )
        if ss.lt_heston_b(h) * (1.0 + abs(h.rho)) >= 2.0:
            continue
        threshold = ss.lt_heston_threshold(h)
        at_threshold = ss.certify(ss.heston_to_ssvi(h, threshold))
        ok &= at_threshold.passed
        half = ss.heston_to_ssvi(h, 0.5 * threshold)
        cert_half = ss.certify(half)
        density_half = durrleman_check(half.to_raw()).min_value >= DENSITY_TOL
        # never: density passes while the exact certification rejects
        ok &= not (density_half and not cert_half.passed)
        done += 1
    _report(11, ok, "long-maturity smiles certified at the explicit threshold")


def test_criterion_12_scan_derivatives_vs_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        rho = rng.uniform(0.0, 0.95)
        x = rng.uniform(ss.X_M2_RHO1, 0.995)
        b = 2.0 / (1.0 + rho)
        d2j2, d2j1 = ss._uniqueness_terms(x, rho, b)[2:]
        h = 1e-5
        fd_j2 = (ss.j2_x(x + h, rho) - 2 * ss.j2_x(x, rho) + ss.j2_x(x - h, rho)) / h**2

        def j1(xx):
            g = (xx + rho) / 4.0
            hv = 0.5 * (1.0 + math.sqrt((1 - xx * xx) / (1 - rho * rho)))
            return hv * hv - b * b * g * g

        fd_j1 = (j1(x + h) - 2 * j1(x) + j1(x - h)) / h**2
        worst = max(worst, abs(d2j2 - fd_j2) / abs(fd_j2), abs(d2j1 - fd_j1) / abs(fd_j1))
    ok = worst <= 1e-5
    _report(12, ok, f"symbolic vs finite-difference second derivatives, worst {worst:.2e}")
