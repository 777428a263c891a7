"""Bracketed scalar solvers shared by the family modules and the oracle.

``brentq`` is Brent's method (Brent 1973, *Algorithms for Minimization
Without Derivatives*, ch. 4) in the exact form of SciPy's
``scipy.optimize.brentq``: the same iterates, the same stopping test and the
same interpolate/extrapolate/bisect rules, so it returns the same float for
the same objective, bracket and tolerances.  Keeping it in-house keeps SciPy,
whose import costs more than a whole certification, off the import path.

Each family's single non-closed-form root is one ``brentq`` call on the
bracket it knows; the one grid scan for a bracket is ``core._u_root`` on the
``u = 1/l`` wing grid, which calls ``brentq`` on the first sign change.

``maximize`` is Brent's bounded method for the maximum of a function on an
interval (Brent 1973, ch. 5): golden-section steps safeguarding parabolic
interpolation, in the form of SciPy's ``fminbound`` but with a relative
bracket-width stopping rule.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["RTOL", "brentq", "maximize"]

# smallest relative tolerance brentq accepts
RTOL = 4.0 * sys.float_info.epsilon

# golden-section fraction (3 - sqrt(5))/2 of the larger part of a bracket
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

# evaluations maximize makes after its first one, at most
_MAXITER = 256


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue."
        )
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 2e-12,
    rtol: float = RTOL,
    maxiter: int = 100,
) -> float:
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    Converged when half the bracket is below ``(xtol + rtol*|x|)/2``.
    ``f`` is called with Python floats; its value is taken as a float.

    Raises ValueError for tolerances out of range, for a bracket whose end
    values have the same sign, and for a NaN value of ``f``; RuntimeError
    when ``maxiter`` iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:
                pass  # in IEEE arithmetic an inf or NaN step: bisect
            else:
                if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                    spre, scur = scur, stry  # good short step
                    bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def maximize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    reltol: float = 1e-10,
) -> tuple[float, float]:
    """(x, f(x)) at the largest value of ``f`` found on ``[lo, hi]``.

    Brent's bounded method on ``-f``.  The bracket ``[a, b]`` around the
    best point x shrinks until x lies within ``reltol*(|a| + |b| + 1e-12)/2``
    of both ends, so the last bracket is at most ``reltol*(|a| + |b| +
    1e-12)`` wide; at most 256 evaluations follow the first.  ``f`` is
    called with Python floats inside ``[lo, hi]``; its value is taken as a
    float.  On a function with several local maxima the one
    found is a local maximum.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = -float(f(x))
    d = e = 0.0
    for _ in range(_MAXITER):
        xm = 0.5 * (a + b)
        tol1 = 0.25 * reltol * (abs(a) + abs(b) + 1e-12)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # parabola through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:  # too close to an end
                    d = tol1 if xm >= x else -tol1
                golden = False
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN * e
        # never step by less than the tolerance; d itself is kept as it is
        u = x + (max(abs(d), tol1) if d >= 0.0 else -max(abs(d), tol1))
        fu = -float(f(u))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, -fx
