"""Unbounded L-BFGS that makes the evaluations of scipy's L-BFGS-B.

Without bounds, L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) is L-BFGS with the
Moré–Thuente line search (1994).  ``minimize`` follows scipy's solver step by
step: the same iterations, evaluations and message, iterates equal to rounding.
"""

from collections import deque

import numpy as np

EPS = np.finfo(float).eps
MAXCOR = 20                                 # (s, y) pairs kept, L-BFGS-B's maxcor
LS_FTOL, LS_GTOL, XTOL, STPMAX, MAX_EVALS = 1e-3, 0.9, 0.1, 1e10, 20  # L-BFGS-B's line search


def minimize(fun, x0, max_iter, gtol, ftol):
    """Minimize ``fun(x) -> (f, gradient)`` from ``x0``.

    Stops at max|g| <= gtol at x0, then after each iteration at the
    ``max_iter`` limit, max|g| <= gtol, or (f_k - f_{k+1}) /
    max(|f_k|, |f_{k+1}|, 1) <= ftol, in that order.  A line search fails
    along an ascent direction, after 20 trials or at a non-finite trial; the
    solve then retries from the last iterate along -g without memory, or
    stops if it had none.  Returns ``(x, nit, nfev, success, message)``.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, last = 1, (x, f, g)

    def phi(stp):                     # f and slope along d; no point evaluated twice in a row
        nonlocal nfev, last
        xs = z if stp == 1.0 else stp * d + x
        if not np.array_equal(xs, last[0]):
            nfev += 1
            last = (xs, *fun(xs))
        return last[1], last[2] @ d

    if np.max(np.abs(g)) <= gtol:
        return x, 0, nfev, True, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    tol = ftol / EPS * EPS            # scipy hands L-BFGS-B factr = ftol / eps
    memory, theta, nit = deque(maxlen=MAXCOR), 1.0, 0   # (s, y, 1/s'y); H0 = I/theta
    while True:
        q, alphas = g.copy(), []      # q = H g by the two-loop recursion (N&W Alg. 7.4)
        for s, y, rho in reversed(memory):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        q /= theta
        for (s, y, rho), alpha in zip(memory, reversed(alphas)):
            q += s * (alpha - rho * (y @ q))
        z = x - q
        d = z - x
        gd = g @ d
        stp = min(1.0 / np.sqrt(d @ d), STPMAX) if nit == 0 else 1.0
        found = line_search(phi, f, gd, stp) if gd < 0 else None
        if found is None:
            if not memory:
                return x, nit, nfev, False, "ABNORMAL: "
            memory, theta = deque(maxlen=MAXCOR), 1.0
            continue
        stp, _, gd_new = found
        (x, f, g), f_old, g_old = last, f, g
        nit += 1
        if nit >= max_iter:
            return x, nit, nfev, False, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        if np.max(np.abs(g)) <= gtol:
            return x, nit, nfev, True, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
        if f_old - f <= tol * max(abs(f_old), abs(f), 1.0):
            return x, nit, nfev, True, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
        y = g - g_old
        sy = (gd_new - gd) * stp
        if sy > EPS * (-gd * stp):    # L-BFGS-B's curvature test for an update
            theta = (y @ y) / sy
            memory.append((stp * d, y, 1.0 / sy))


def line_search(phi, f0, g0, stp):
    """Moré–Thuente search, a port of MINPACK-2 ``dcsrch`` with stpmin 0.

    ``phi(stp) -> (f, slope)``, with ``f0`` and ``g0 < 0`` at step 0 and
    ``stp`` the first trial.  Returns ``(stp, f, slope)`` at the first
    trial that meets the strong Wolfe conditions or ends the search with a
    MINPACK warning (L-BFGS-B accepts both), else None.
    """
    gtest, brackt, stage1 = LS_FTOL * g0, False, True
    stx, fx, gx = sty, fy, gy = 0.0, f0, g0
    width, width1, stmin, stmax = STPMAX, 2.0 * STPMAX, 0.0, stp + 4.0 * stp
    for _ in range(MAX_EVALS):
        f, g = phi(stp) if np.isfinite(stp) else (np.nan, np.nan)
        if not (np.isfinite(f) and np.isfinite(g)):
            return None
        ftest = f0 + stp * gtest
        stage1 = stage1 and not (f <= ftest and g >= 0)
        if (f <= ftest and abs(g) <= LS_GTOL * -g0
                or brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax)
                or stp == STPMAX and f <= ftest and g <= gtest
                or stp == 0.0 and (f > ftest or g >= gtest)):
            return stp, f, g
        # in stage 1 a lower value without sufficient decrease steps on f - stp * gtest
        m = gtest if stage1 and ftest < f <= fx else 0.0
        with np.errstate(all="ignore"):
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx - stx * m, gx - m, sty, fy - sty * m, gy - m,
                stp, f - stp * m, g - m, brackt, stmin, stmax)
        fx, fy, gx, gy = fx + stx * m, fy + sty * m, gx + m, gy + m
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width, stmin, stmax = width, abs(sty - stx), min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = np.float64(min(max(stp, 0.0), STPMAX))
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax):
            stp = stx                 # no progress left: retry the best step
    return None


def _cubic(u, du, v, dv, theta):
    """The step from u toward v that minimizes the interpolating cubic."""
    s = max(abs(theta), abs(du), abs(dv))
    gamma = (-1.0 if v < u else 1.0) * s * np.sqrt((theta / s) ** 2 - (du / s) * (dv / s))
    return u + ((gamma - du) + theta) / (((gamma - du) + gamma) + dv) * (v - u)


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 ``dcstep``: the safeguarded next trial step and interval."""
    theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
    secant = stp + dp / (dp - dx) * (stx - stp)
    opposite = np.sign(dp) * np.sign(dx) < 0
    if fp > fx:                       # a higher value brackets a minimizer
        stpc = _cubic(stx, dx, stp, dp, theta)
        quad = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(quad - stx) else stpc + (quad - stpc) / 2.0
        brackt = True
    elif opposite:                    # so do slopes of opposite sign
        stpc = _cubic(stp, dp, stx, dx, theta)
        stpf = stpc if abs(stpc - stp) > abs(secant - stp) else secant
        brackt = True
    elif abs(dp) < abs(dx):           # same sign, the slope's size falls
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = ((-1.0 if stp > stx else 1.0) * s
                 * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s))))
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        stpc = (stp + r * (stx - stp) if r < 0 and gamma != 0
                else stpmax if stp > stx else stpmin)
        if brackt:
            near = stpc if abs(stpc - stp) < abs(secant - stp) else secant
            stpf = (min if stp > stx else max)(stp + 0.66 * (sty - stp), near)
        else:
            far = stpc if abs(stpc - stp) > abs(secant - stp) else secant
            stpf = min(max(far, stpmin), stpmax)
    elif brackt:                      # the slope's size does not fall
        stpf = _cubic(stp, dp, sty, dy, 3.0 * (fp - fy) / (sty - stp) + dy + dp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        return stx, fx, dx, stp, fp, dp, stpf, brackt
    if opposite:
        return stp, fp, dp, stx, fx, dx, stpf, brackt
    return stp, fp, dp, sty, fy, dy, stpf, brackt
