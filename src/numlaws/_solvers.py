"""The two numerical solvers numlaws runs, each over one or two unknowns.

- ``levenberg_marquardt`` is MINPACK's ``lmder`` (Moré 1978) as it runs
  with an analytic Jacobian, unit column scaling (``diag = 1``, mode 2)
  and the initial step bound ``factor = 100``: QR with column pivoting
  (``qrfac``), the Levenberg-Marquardt parameter (``lmpar``, at most 10
  iterations) over ``qrsolv``, norms by ``enorm``, and the same
  acceptance, step-bound and termination tests.  ``ftol`` bounds the
  actual and predicted relative reductions of the sum of squares,
  ``xtol`` the step bound relative to the norm of x, and ``gtol`` the
  cosine between the residual and each Jacobian column at the start of
  an outer iteration.  The stringent-tolerance exits (MINPACK info 6-8)
  need a tolerance below machine epsilon, so they are left out.
- ``brent`` is Brent's bracketing root finder (Brent 1973) in the
  formulation of SciPy's ``brentq``: f(a), then f(b), then up to 100
  steps of inverse quadratic extrapolation or secant interpolation,
  falling back to bisection, until half the bracket is below
  ``(xtol + 4*eps*|x|)/2``.

The 1x1 and 2x2 linear algebra runs on Python floats, in MINPACK's order
of operations, so every float and every function evaluation matches the
compiled MINPACK and ``brentq`` bit for bit.  A residual that raises
stops either solver, and the exception propagates.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add, mul

import numpy as np

_EPS = sys.float_info.epsilon
_DWARF = sys.float_info.min
# enorm's thresholds: squares of components in (_RDWARF, _RGIANT/n) are
# summed directly, smaller and larger ones are scaled first
_RDWARF = 3.833233541708435e-20
_RGIANT = 1.3043817825332783e19


def _enorm(v):
    """Euclidean norm without overflow or destructive underflow."""
    agiant = _RGIANT / len(v)
    s2 = 0.0
    for x in v:
        if not _RDWARF < abs(x) < agiant:
            break
        s2 += x * x
    else:
        # the common case: no component needs scaling
        return math.sqrt(s2)
    s1 = s2 = s3 = x1max = x3max = 0.0
    for x in v:
        xabs = abs(x)
        if _RDWARF < xabs < agiant:
            s2 += xabs * xabs
        elif xabs <= _RDWARF:
            if xabs > x3max:
                t = x3max / xabs
                s3 = 1.0 + s3 * (t * t)
                x3max = xabs
            elif xabs != 0.0:
                t = xabs / x3max
                s3 += t * t
        elif xabs > x1max:
            t = x1max / xabs
            s1 = 1.0 + s1 * (t * t)
            x1max = xabs
        else:
            t = xabs / x1max
            s1 += t * t
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _dot(u, v):
    """Inner product summed in order from 0, as MINPACK's loops sum it."""
    return reduce(add, map(mul, u, v), 0.0)


def _qrfac(a):
    """Householder QR with column pivoting of the columns ``a``, in place.

    Returns (ipvt, rdiag, acnorm): column j of the result was column
    ``ipvt[j]`` of the input, ``rdiag`` is R's diagonal and ``acnorm``
    the norms of the input columns.  Afterwards each column holds R above
    its diagonal and its Householder vector from the diagonal down.
    """
    m, n = len(a[0]), len(a)
    acnorm = [_enorm(column) for column in a]
    rdiag = acnorm[:]
    wa = acnorm[:]
    ipvt = list(range(n))
    for j in range(min(m, n)):
        kmax = j
        for k in range(j, n):
            if rdiag[k] > rdiag[kmax]:
                kmax = k
        if kmax != j:
            a[j], a[kmax] = a[kmax], a[j]
            rdiag[kmax] = rdiag[j]
            wa[kmax] = wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        aj = a[j]
        ajnorm = _enorm(aj[j:])
        if ajnorm != 0.0:
            if aj[j] < 0.0:
                ajnorm = -ajnorm
            aj[j:] = [x / ajnorm for x in aj[j:]]
            aj[j] += 1.0
            for k in range(j + 1, n):
                ak = a[k]
                temp = _dot(aj[j:], ak[j:]) / aj[j]
                ak[j:] = [y - temp * x for x, y in zip(aj[j:], ak[j:])]
                if rdiag[k] != 0.0:
                    temp = ak[j] / rdiag[k]
                    rdiag[k] *= math.sqrt(max(0.0, 1.0 - temp * temp))
                    temp = rdiag[k] / wa[k]
                    if not 0.05 * (temp * temp) > _EPS:
                        rdiag[k] = wa[k] = _enorm(ak[j + 1:])
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _qrsolv(r, ipvt, d, qtb):
    """Least-squares solution of ``[R; d*I] z = [Q^T b; 0]`` by Givens rotations.

    ``r`` holds the columns of R (upper triangle) and receives the
    transposed triangle of S below its diagonal; ``d`` is positive.
    Returns (x, sdiag), with S's diagonal in ``sdiag``.
    """
    n = len(r)
    x = []
    wa = qtb[:]
    for j in range(n):
        for i in range(j, n):
            r[j][i] = r[i][j]
        x.append(r[j][j])
    sdiag = [0.0] * n
    for j in range(n):
        for k in range(j, n):
            sdiag[k] = 0.0
        sdiag[j] = d
        qtbpj = 0.0
        for k in range(j, n):
            if sdiag[k] == 0.0:
                continue
            rk = r[k]
            if abs(rk[k]) >= abs(sdiag[k]):
                tan = sdiag[k] / rk[k]
                cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                sin = cos * tan
            else:
                cotan = rk[k] / sdiag[k]
                sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                cos = sin * cotan
            rk[k] = cos * rk[k] + sin * sdiag[k]
            temp = cos * wa[k] + sin * qtbpj
            qtbpj = -sin * wa[k] + cos * qtbpj
            wa[k] = temp
            for i in range(k + 1, n):
                temp = cos * rk[i] + sin * sdiag[i]
                sdiag[i] = -sin * rk[i] + cos * sdiag[i]
                rk[i] = temp
        sdiag[j] = r[j][j]
        r[j][j] = x[j]
    nsing = n
    for j in range(n):
        if sdiag[j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa[j] = 0.0
    for j in reversed(range(nsing)):
        s = 0.0
        for i in range(j + 1, nsing):
            s += r[j][i] * wa[i]
        wa[j] = (wa[j] - s) / sdiag[j]
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x, sdiag


def _lmpar(r, ipvt, qtb, delta, par):
    """The Levenberg-Marquardt parameter and step for step bound ``delta``.

    ``r`` is R from ``_qrfac`` with its diagonal in place and ``qtb`` is
    the first n entries of Q^T f; columns are unscaled (D = I).  Returns
    (par, x): the parameter, 0 when the Gauss-Newton step is within 10%
    of the bound, and the step solving ``(J^T J + par I) x = J^T f``,
    whose norm is within 10% of ``delta`` after at most 10 iterations.
    """
    n = len(r)
    nsing = n
    wa1 = qtb[:]
    for j in range(n):
        if r[j][j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa1[j] = 0.0
    for j in reversed(range(nsing)):
        wa1[j] /= r[j][j]
        temp = wa1[j]
        for i in range(j):
            wa1[i] -= r[j][i] * temp
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]
    dxnorm = _enorm(x)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    # the Newton step bounds the parameter below, unless R is singular
    parl = 0.0
    if nsing == n:
        wa1 = [x[l] / dxnorm for l in ipvt]
        for j in range(n):
            s = 0.0
            for i in range(j):
                s += r[j][i] * wa1[i]
            wa1[j] = (wa1[j] - s) / r[j][j]
        temp = _enorm(wa1)
        parl = ((fp / delta) / temp) / temp
    # the gradient bounds it above
    wa1 = []
    for j in range(n):
        s = 0.0
        for i in range(j + 1):
            s += r[j][i] * qtb[i]
        wa1.append(s)
    gnorm = _enorm(wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    iteration = 0
    while True:
        iteration += 1
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        x, sdiag = _qrsolv(r, ipvt, math.sqrt(par), qtb)
        dxnorm = _enorm(x)
        temp = fp
        fp = dxnorm - delta
        if (
            abs(fp) <= 0.1 * delta
            or (parl == 0.0 and fp <= temp and temp < 0.0)
            or iteration == 10
        ):
            return par, x
        # Newton correction
        wa1 = [x[l] / dxnorm for l in ipvt]
        for j in range(n):
            wa1[j] /= sdiag[j]
            temp = wa1[j]
            for i in range(j + 1, n):
                wa1[i] -= r[j][i] * temp
        temp = _enorm(wa1)
        parc = ((fp / delta) / temp) / temp
        if fp > 0.0:
            parl = max(parl, par)
        if fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)


def levenberg_marquardt(fun, jac, x0, xtol, ftol, gtol, max_evaluations):
    """Minimize ``|fun(x)|^2`` from ``x0`` with the Jacobian ``jac``.

    ``fun`` maps an array of n floats to m >= n residuals, ``jac`` to
    their m x n Jacobian.  A trial point equal to the last point
    evaluated reuses its residuals, but counts against
    ``max_evaluations`` as an evaluation.  Returns (x, fun(x), converged):
    the best point, its residuals, and False if the run stopped at
    ``max_evaluations`` rather than on a tolerance.
    """
    x = [float(t) for t in x0]
    n = len(x)
    fvec = fun(np.array(x))
    last_x, last_f = x, fvec
    evaluations = 1
    fnorm = _enorm(fvec.tolist())
    par = 0.0
    first = True
    while True:
        fjac = jac(np.array(x)).T.tolist()
        ipvt, rdiag, acnorm = _qrfac(fjac)
        if first:
            xnorm = _enorm(x)
            # MINPACK's factor 100; a zero bound is replaced by the factor
            delta = 100.0 * xnorm or 100.0
        # Q^T f, then R's diagonal back in place
        wa4 = fvec.tolist()
        qtf = []
        for j in range(n):
            column = fjac[j]
            if column[j] != 0.0:
                temp = -_dot(column[j:], wa4[j:]) / column[j]
                wa4[j:] = [w + c * temp for c, w in zip(column[j:], wa4[j:])]
            column[j] = rdiag[j]
            qtf.append(wa4[j])
        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                norm = acnorm[ipvt[j]]
                if norm != 0.0:
                    s = 0.0
                    for i in range(j + 1):
                        s += fjac[j][i] * (qtf[i] / fnorm)
                    gnorm = max(gnorm, abs(s / norm))
        if gnorm <= gtol:
            return np.array(x), fvec, True
        while True:
            par, step = _lmpar(fjac, ipvt, qtf, delta, par)
            step = [-s for s in step]
            trial = [x[j] + step[j] for j in range(n)]
            pnorm = _enorm(step)
            if first:
                delta = min(delta, pnorm)
            if trial == last_x:
                trial_f = last_f
            else:
                trial_f = last_f = fun(np.array(trial))
                last_x = trial
            evaluations += 1
            fnorm1 = _enorm(trial_f.tolist())
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                temp = fnorm1 / fnorm
                actred = 1.0 - temp * temp
            # predicted reduction and directional derivative
            wa3 = [0.0] * n
            for j in range(n):
                temp = step[ipvt[j]]
                for i in range(j + 1):
                    wa3[i] += fjac[j][i] * temp
            temp1 = _enorm(wa3) / fnorm
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
                x, fvec = trial, trial_f
                xnorm = _enorm(x)
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
