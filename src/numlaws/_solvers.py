"""The two numerical solvers numlaws runs, each over one or two unknowns.

- ``levenberg_marquardt`` keeps the rules of MINPACK's ``lmder`` (Moré
  1978) as it runs with an analytic Jacobian, unit column scaling
  (``diag = 1``, mode 2) and the initial step bound ``factor = 100``:
  ``lmpar``'s Newton iteration for the Levenberg-Marquardt parameter (at
  most 10 iterations, to within 10% of the step bound), and the same
  acceptance, step-bound and termination tests.  ``ftol`` bounds the
  actual and predicted relative reductions of the sum of squares,
  ``xtol`` the step bound relative to the norm of x, and ``gtol`` the
  cosine between the residual and each Jacobian column at the start of
  an outer iteration.  The stringent-tolerance exits (MINPACK info 6-8)
  need a tolerance below machine epsilon, so they are left out.  The
  linear algebra is written out for one or two columns: a pivoted QR by
  Gram-Schmidt, and the damped system solved through the Cholesky
  factor of ``R^T R + par I``, with norms by ``math.hypot`` and sums by
  ``math.fsum``.  One function gives the residuals and their Jacobian
  at each point, and the solver keeps the Jacobian of each accepted
  trial for the next outer iteration, where ``lmder`` calls back for it.
- ``brent`` is Brent's bracketing root finder (Brent 1973) in the
  formulation of SciPy's ``brentq``: f(a), then f(b), then up to 100
  steps of inverse quadratic extrapolation or secant interpolation,
  falling back to bisection, until half the bracket is below
  ``(xtol + 4*eps*|x|)/2``.  Every float and every function evaluation
  matches ``brentq`` bit for bit.

Both run on Python floats, so no result depends on which vector kernels
the CPU offers.  A residual that raises stops either solver, and the
exception propagates.
"""

from __future__ import annotations

import math
import sys
from operator import mul

import numpy as np

_EPS = sys.float_info.epsilon
_DWARF = sys.float_info.min


def _qr(columns, norms, f):
    """QR with pivoting of one or two columns, and the projection of ``f``.

    ``norms`` are the column norms, not all 0.  Returns (order, r, qtf):
    ``order`` lists the column indices with the larger norm first, ``r``
    is R as (r11,) or (r11, r12, r22), and ``qtf`` is Q^T f, with 0 for a
    column that adds no direction.  The second column is orthogonalized
    twice, so Q stays orthonormal when the columns are nearly parallel.
    """
    order = [1, 0] if len(columns) == 2 and norms[1] > norms[0] else list(range(len(columns)))
    r11 = norms[order[0]]
    q1 = [t / r11 for t in columns[order[0]]]
    if len(columns) == 1:
        return order, (r11,), [math.fsum(map(mul, q1, f))]
    v, r12 = columns[order[1]], 0.0
    for _ in range(2):
        c = math.fsum(map(mul, q1, v))
        v = [t - c * q for t, q in zip(v, q1)]
        r12 += c
    r22 = math.hypot(*v)
    qtf2 = math.fsum(map(mul, v, f)) / r22 if r22 != 0.0 else 0.0
    return order, (r11, r12, r22), [math.fsum(map(mul, q1, f)), qtf2]


def _back(r, y):
    """z with R z = y."""
    if len(y) == 1:
        return [y[0] / r[0]]
    z2 = y[1] / r[2]
    return [(y[0] - r[1] * z2) / r[0], z2]


def _forward(r, b):
    """w with R^T w = b."""
    w1 = b[0] / r[0]
    if len(b) == 1:
        return [w1]
    return [w1, (b[1] - r[1] * w1) / r[2]]


def _damped(r, qtf, par):
    """(S, y): S^T S = R^T R + par I, S upper triangular, and S^T y = R^T qtf.

    Both are written without cancellation: the entries that the shift
    changes are sums of squares, and ``t = sqrt(par)/s11`` is at most 1.
    """
    root = math.sqrt(par)
    s11 = math.hypot(r[0], root)
    y1 = (r[0] / s11) * qtf[0]
    if len(qtf) == 1:
        return (s11,), [y1]
    t = root / s11
    s22 = math.hypot(r[2], root, r[1] * t)
    y2 = ((r[1] * t) * t * qtf[0] + r[2] * qtf[1]) / s22
    return (s11, (r[0] / s11) * r[1], s22), [y1, y2]


def _lmpar(r, qtf, delta, par):
    """The Levenberg-Marquardt parameter and step for step bound ``delta``.

    ``r`` and ``qtf`` are from ``_qr``, with r11 nonzero; columns are
    unscaled (D = I).  Returns (par, z): the parameter, 0 when the
    Gauss-Newton step is within 10% of the bound, and the step in R's
    column order solving ``(R^T R + par I) z = R^T qtf``, whose norm is
    within 10% of ``delta`` after at most 10 iterations.
    """
    singular = len(r) == 3 and r[2] == 0.0
    z = [qtf[0] / r[0], 0.0] if singular else _back(r, qtf)
    dxnorm = math.hypot(*z)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, z
    # the Newton step bounds the parameter below, unless R is singular
    parl = 0.0
    if not singular:
        temp = math.hypot(*_forward(r, [t / dxnorm for t in z]))
        parl = ((fp / delta) / temp) / temp
    # the gradient, R^T qtf, bounds it above
    gradient = [r[0] * qtf[0], r[1] * qtf[0] + r[2] * qtf[1]] if len(r) == 3 else [r[0] * qtf[0]]
    gnorm = math.hypot(*gradient)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        s, y = _damped(r, qtf, par)
        z = _back(s, y)
        dxnorm = math.hypot(*z)
        temp = fp
        fp = dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= temp < 0.0) or iteration == 10:
            return par, z
        # Newton correction, on the step scaled to unit norm first: a
        # subnormal par leaves s22 so small that the raw step overflows
        temp = math.hypot(*_forward(s, [t / dxnorm for t in z]))
        parc = ((fp / delta) / temp) / temp
        if fp > 0.0:
            parl = max(parl, par)
        if fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)


def levenberg_marquardt(fun, x0, xtol, ftol, gtol, max_evaluations):
    """Minimize the sum of squares of the residuals ``fun`` gives, from ``x0``.

    ``fun`` maps an array of n = 1 or 2 floats to (residuals, Jacobian):
    m >= n residuals and their m x n Jacobian.  It is called once per
    evaluation, trial steps that are rejected included; the Jacobian of
    the accepted trial is kept for the next outer iteration.  Returns
    (x, residuals, converged): the best point, its residuals, and False
    if the run stopped after ``max_evaluations`` evaluations rather than
    on a tolerance.
    """
    x = [float(t) for t in x0]
    fvec, fjac = fun(np.array(x))
    evaluations = 1
    fnorm = math.hypot(*fvec.tolist())
    par = 0.0
    first = True
    while True:
        columns, f = fjac.T.tolist(), fvec.tolist()
        norms = [math.hypot(*column) for column in columns]
        if first:
            xnorm = math.hypot(*x)
            # MINPACK's factor 100; a zero bound is replaced by the factor
            delta = 100.0 * xnorm or 100.0
        # the largest cosine between the residual and a column of J
        gnorm = 0.0
        if fnorm != 0.0:
            for column, norm in zip(columns, norms):
                if norm != 0.0:
                    gnorm = max(gnorm, abs(math.fsum(map(mul, column, f)) / fnorm / norm))
        if gnorm <= gtol:
            return np.array(x), fvec, True
        order, r, qtf = _qr(columns, norms, f)
        while True:
            par, z = _lmpar(r, qtf, delta, par)
            trial = x[:]
            for j, t in zip(order, z):
                trial[j] -= t
            pnorm = math.hypot(*z)
            if first:
                delta = min(delta, pnorm)
            trial_f, trial_jac = fun(np.array(trial))
            evaluations += 1
            fnorm1 = math.hypot(*trial_f.tolist())
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                temp = fnorm1 / fnorm
                actred = 1.0 - temp * temp
            # predicted reduction and directional derivative
            rz = [r[0] * z[0] + r[1] * z[1], r[2] * z[1]] if len(r) == 3 else [r[0] * z[0]]
            temp1 = math.hypot(*rz) / fnorm
            temp2 = (math.sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio > 0.25:
                if par == 0.0 or ratio >= 0.75:
                    delta = pnorm / 0.5
                    par = 0.5 * par
            else:
                if actred >= 0.0:
                    temp = 0.5
                else:
                    temp = 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par = par / temp
            if ratio >= 1e-4:
                x, fvec, fjac = trial, trial_f, trial_jac
                xnorm = math.hypot(*x)
                fnorm = fnorm1
                first = False
            if (
                abs(actred) <= ftol and prered <= ftol and 0.5 * ratio <= 1.0
            ) or delta <= xtol * xnorm:
                return np.array(x), fvec, True
            if evaluations >= max_evaluations:
                return np.array(x), fvec, False
            if ratio >= 1e-4:
                break


def brent(f, a, b, xtol):
    """The root of ``f`` in the bracket [a, b] and whether it converged.

    ``f(a)`` and ``f(b)`` must differ in sign, or one must be 0.  The
    root is always a point where ``f`` was evaluated; after 100 steps
    without convergence the last evaluated point is returned.
    """
    rtol = 4 * _EPS
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0.0:
        return xpre, True
    if fcur == 0.0:
        return xcur, True
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True
        # an infinite or undefined trial step (zero denominator) bisects
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant interpolation
                numerator, denominator = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                numerator = -fcur * (fblk * dblk - fpre * dpre)
                denominator = dblk * dpre * (fblk - fpre)
            if denominator != 0.0:
                stry = numerator / denominator
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur, False
