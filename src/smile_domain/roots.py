"""The bracketed root solver shared by the family modules and the oracle.

``brentq`` is Brent's method (Brent 1973, *Algorithms for Minimization
Without Derivatives*, ch. 4) in the exact form of SciPy's
``scipy.optimize.brentq``: the same iterates, the same stopping test and the
same interpolate/extrapolate/bisect rules, so it returns the same float for
the same objective, bracket and tolerances.  Keeping it in-house keeps SciPy,
whose import costs more than a whole certification, off the import path.

Each family's single non-closed-form root is one ``brentq`` call on the
bracket it knows; the one grid scan for a bracket is ``core._u_root`` on the
``u = 1/l`` wing grid, which evaluates its caller's body once on the grid
and calls ``brentq`` with the same body on the first sign change, so the
grid's values set only the bracket.
The oracle's supremum is a root too: one ``brentq`` on the critical-point
residual, whose sign is that of the requirement's slope, across the best
point of its wing scan.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["RTOL", "brentq"]

# smallest relative tolerance brentq accepts
RTOL = 4.0 * sys.float_info.epsilon


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

