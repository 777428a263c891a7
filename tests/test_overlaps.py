"""A smile in two families gets the same sigma* from both closed forms."""

from __future__ import annotations

import numpy as np
import pytest

from smile_domain import extremal, ssvi, symmetric

# b from 1e-9 to next to the slope bound 2, denser at both ends
_B = np.concatenate([
    np.geomspace(1e-9, 1e-2, 50, endpoint=False),
    np.linspace(0.01, 1.99, 200),
    2.0 - np.geomspace(1e-2, 2e-10, 56),
])


def test_ssvi_at_rho_0_is_symmetric_at_gamma_1():
    # theta = 2b, phi = 1, rho = 0 is gamma = 1, mu = 0, sigma = 1; the worst
    # gap, 4.4e-11 next to b = 2, is of the size of both routes' own error
    assert len(_B) == 306
    for b in map(float, _B):
        s = ssvi.certify(ssvi.SsviParams(theta=2.0 * b, phi=1.0, rho=0.0))
        m = symmetric.certify(symmetric.SymmetricParams(gamma=1.0, b=b, sigma=1.0))
        assert s.bounds["sigma_star"] == pytest.approx(m.bounds["sigma_star"], rel=1e-10, abs=0.0), b


def test_symmetric_at_b_2_is_extremal_at_q_0():
    for gamma in map(float, np.geomspace(1e-3, 1e3, 200)):
        m = symmetric.certify(symmetric.SymmetricParams(gamma=gamma, b=2.0, sigma=1.0))
        e = extremal.certify(extremal.ExtremalParams(gamma=gamma, q=0.0, sigma=1.0))
        assert m.bounds["sigma_star"] == e.bounds["sigma_star"], gamma
