"""Numerical kernels on numpy alone: Brent's root finder, the inverse of
the regularized incomplete gamma at integer shape, and the three bounded
least-squares fits of the decay and RB models.

* :func:`brentq` is scipy's ``brentq.c`` line for line, with its defaults,
  so it returns the same root bit for bit; where C divides by zero it
  bisects, as C's infinite step does.  It takes the end values when the
  caller has them already.
* :func:`gamma_quantile` solves ``P(a, x) = q`` for an integer ``a``, where
  P is one minus a Poisson sum.  Each Poisson term comes from Loader's
  saddle-point form, the sum runs over the smaller tail, and Newton's
  method (bisection when a step leaves the bracket) finds x.
* The fits return ``(popt, pcov)`` as ``curve_fit`` does: the minimizer of
  the weighted sum of squares inside the box, and the pseudo-inverse of
  JᵀJ at the optimum (J the weighted Jacobian, singular values below
  ``eps * max(J.shape) * s_max`` dropped).  With ``sigma=None`` it is
  scaled by chi²/(m - n), and it is inf when m <= n, or when the
  stretched fit ends on the plateau where every model value is 0 (which
  ``curve_fit``'s search stops short of).  Bad input raises
  ``ValueError`` and an iteration cap ``RuntimeError``, in the cases
  where ``curve_fit`` raises them.  :func:`fit_exp_decay` is a 1-D search
  in log T2, :func:`fit_stretched_decay` a box-bounded damped Newton
  (Levenberg-Marquardt with the full Hessian) in (log T2, n), and
  :func:`fit_rb_decay` a 1-D search over p with a and b solved in their
  box at each p (variable projection).
* :func:`distinct` is ``np.unique`` of NaN-free values by sort and mask,
  without the ``numpy.ma`` import ``np.unique`` makes on first use.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
_RTOL = 4 * EPS
_MAXITER = 100  # brentq's iteration cap, scipy's default
_NEWTON_MAXITER = 500  # _newton's iteration cap


def distinct(values) -> np.ndarray:
    """The sorted distinct entries of NaN-free ``values``, flattened:
    the values ``np.unique`` returns."""
    a = np.sort(np.ravel(values))
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x:.6g} is NaN")
    return fx


def brentq(f, a: float, b: float, *, xtol: float = 2e-12, rtol: float = _RTOL,
           fa: float | None = None, fb: float | None = None) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    ``fa`` and ``fb`` stand in for f(a) and f(b).  Raises ``ValueError``
    on ends of one sign or a NaN value, and ``RuntimeError`` when
    ``_MAXITER`` iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    xpre, xcur = float(a), float(b)
    fpre = _value(f, xpre) if fa is None else float(fa)
    fcur = _value(f, xcur) if fb is None else float(fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # where C divides by zero, its inf or NaN step bisects
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den
                        if den else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"failed to converge after {_MAXITER} iterations, "
                       f"value is {xcur}")


# ---------------------------------------------------------------------------
# Incomplete gamma at integer shape


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), for n >= 1."""
    if n <= 15:
        return (math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n
                - 0.5 * math.log(2 * math.pi))
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn)
                      / nn) / nn) / n


def _bd0(k: int, lam: float) -> float:
    """k log(k/lam) + lam - k, without cancellation when k is near lam."""
    if abs(k - lam) >= 0.1 * (k + lam):
        return k * math.log(k / lam) + lam - k
    v = (k - lam) / (k + lam)
    s, ej, j = (k - lam) * v, 2.0 * k * v, 1
    while True:
        ej *= v * v
        s_next = s + ej / (2 * j + 1)
        if s_next == s:
            return s
        s, j = s_next, j + 1


def _poisson_pmf(k: int, lam: float) -> float:
    if k == 0:
        return math.exp(-lam)
    return (math.exp(-_stirlerr(k) - _bd0(k, lam))
            / math.sqrt(2 * math.pi * k))


def _gamma_tails(a: int, x: float) -> tuple[float, float]:
    """``(P(a, x), Q(a, x))``, the smaller one summed as a Poisson tail:
    Q(a, x) = sum_{k < a} x^k e^-x / k!."""
    n = int(10 * math.sqrt(x)) + 40  # terms beyond are below 1e-20 of it
    if x < a:
        head = _poisson_pmf(a, x)
        terms = head * np.cumprod(x / np.arange(a + 1, a + n, dtype=float))
        p = head + float(np.sum(terms[::-1]))
        return p, 1.0 - p
    head = _poisson_pmf(a - 1, x)
    ks = np.arange(a - 1, max(a - 1 - n, 0), -1, dtype=float)
    terms = head * np.cumprod(ks / x)
    q = head + float(np.sum(terms[::-1]))
    return 1.0 - q, q


def gamma_quantile(a: int, q: float) -> float:
    """x with P(a, x) = q, P the regularized lower incomplete gamma, for
    an integer ``a >= 1`` and ``0 < q < 1``."""
    a = int(a)
    if a < 1 or not 0.0 < q < 1.0:
        raise ValueError(f"need integer a >= 1 and 0 < q < 1, got {a}, {q}")
    lo, hi, x = 0.0, math.inf, float(a)
    for _ in range(200):
        p, qc = _gamma_tails(a, x)
        # residual P - q, from the tail that was summed
        r = p - q if x < a else (1.0 - q) - qc
        if r == 0:
            return x
        if r > 0:
            hi = x
        else:
            lo = x
        slope = _poisson_pmf(a - 1, x)  # dP/dx
        x_new = x - r / slope if slope > 0 else math.nan
        if not lo < x_new < hi:
            x_new = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
        if abs(x_new - x) <= 2 * EPS * x:
            return x_new
        x = x_new
    raise RuntimeError(f"gamma_quantile({a}, {q}) did not converge")


# ---------------------------------------------------------------------------
# Bounded least squares


def _prepare(x, y, sigma):
    """``curve_fit``'s input checks; returns x, y and the weights 1/sigma."""
    y = np.asarray_chkfinite(y, dtype=float)
    x = np.asarray_chkfinite(x, dtype=float)
    if y.size == 0:
        raise ValueError("`ydata` must not be empty!")
    w = np.ones_like(y) if sigma is None else 1.0 / np.asarray(sigma, dtype=float)
    return x, y, w


def _box(start, lower, upper):
    x0, lo, hi = (np.array(v, dtype=float) for v in (start, lower, upper))
    if np.any(lo >= hi):
        raise ValueError("each lower bound must be strictly less than each "
                         "upper bound")
    if not np.all((x0 >= lo) & (x0 <= hi)):
        raise ValueError("x0 is infeasible")
    return x0, lo, hi


def _finite_start(resid) -> None:
    if not np.all(np.isfinite(resid)):
        raise ValueError("residuals are not finite in the initial point")


def _covariance(jac: np.ndarray, resid: np.ndarray, scaled: bool) -> np.ndarray:
    m, n = jac.shape
    if not np.all(np.isfinite(jac)):
        raise ValueError("Jacobian at the optimum is not finite")
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > EPS * max(m, n) * s[0]
    # a kept singular value whose square underflows makes the covariance
    # infinite, which the fits' caller reports as degenerate; one whose
    # square overflows would make its direction's variance 0, so the
    # covariance is infinite then too.  Either returns before the residual
    # scaling, where a zero residual times an infinite variance would warn
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        square = s[keep] ** 2
        pcov = (vt[keep].T / square) @ vt[keep]
    if np.isinf(square).any() or not np.isfinite(pcov).all():
        return np.full((n, n), np.inf)
    if not scaled:
        return pcov
    if m <= n:
        return np.full((n, n), np.inf)
    return pcov * (float(resid @ resid) / (m - n))


def _descend(fun, x0: float, lo: float, hi: float, step: float) -> float:
    """A minimum of a function on [lo, hi], downhill from ``x0``.
    ``fun(x)`` returns the value and the derivative.  Steps out from x0,
    doubling each step, until the derivative changes sign, then finds its
    zero with :func:`brentq`; returns the bound when it falls all the
    way.  A step that meets a NaN, or on which the value rises though the
    derivative keeps its sign (a degenerate point), is halved instead."""
    fa, ga = fun(x0)
    if ga == 0:
        return x0
    down, end, a = (-1.0, lo, x0) if ga > 0 else (1.0, hi, x0)
    while a != end:
        b = max(a - step, end) if down < 0 else min(a + step, end)
        if b == a:
            return a
        fb, gb = fun(b)
        if math.isnan(fb) or math.isnan(gb) or (fb > fa and gb * down <= 0):
            step /= 2
        elif gb * down > 0:
            return brentq(lambda x: fun(x)[1], a, b, xtol=1e-14, fa=ga, fb=gb)
        elif gb == 0:
            return b
        else:
            a, fa, ga, step = b, fb, gb, 2 * step
    return end


def fit_exp_decay(t, y, sigma, start, bounds):
    """W = exp(-t / T2), searched over log T2 in ``bounds``."""
    t, y, w = _prepare(t, y, sigma)
    x0, lo, hi = _box(start, *bounds)
    _finite_start((y - np.exp(-t / x0[0])) * w)

    def fun(u):  # half the cost and its derivative in u = log T2
        t2 = math.exp(u)
        m = np.exp(-t / t2)
        r = (y - m) * w
        return 0.5 * float(r @ r), -float(r @ (m * (t / t2) * w))

    u = _descend(fun, math.log(x0[0]), math.log(lo[0]), math.log(hi[0]), 0.1)
    t2 = min(max(math.exp(u), lo[0]), hi[0])
    m = np.exp(-t / t2)
    jac = (m * t / t2**2 * w)[:, None]
    return np.array([t2]), _covariance(jac, (y - m) * w, sigma is None)


def _newton(residual, x0, lo, hi):
    """Damped Newton (Levenberg-Marquardt with the full Hessian) on half
    the sum of squares, inside the box [lo, hi].  ``residual(x)`` returns
    the residuals r, J = dr/dx and sum_i r_i d2r_i/dx2, so the Hessian is
    JᵀJ plus that sum: a Gauss-Newton step alone crawls when the
    residuals are large.  A variable that sits on a bound the gradient
    pushes against is held there; the step of the others solves
    (H + lam diag JᵀJ) dx = -Jᵀr and is clipped to the box, and only a
    step that lowers the cost is taken.  Stops when no step that moves a
    variable lowers the cost, or an accepted one moves none by more than
    1e-13 of its size."""
    x = x0
    r, jac, curv = residual(x)
    cost, lam = float(r @ r), 1e-3
    for _ in range(_NEWTON_MAXITER):
        g = jac.T @ r
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        jf = jac[:, free]
        gauss = jf.T @ jf
        hess = gauss + curv[np.ix_(free, free)]
        damp = np.diag(np.maximum(np.diag(gauss), 1e-300))
        while True:
            step = np.zeros_like(x)
            try:
                step[free] = np.linalg.solve(hess + lam * damp, -g[free])
            except np.linalg.LinAlgError:
                step[free] = math.nan  # singular: damp harder
            x_new = np.clip(x + step, lo, hi)
            if np.all(np.abs(x_new - x) <= EPS * (1.0 + np.abs(x))):
                return x
            r_new, jac_new, curv_new = residual(x_new)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                break
            lam *= 10.0
        moved, fell = np.abs(x_new - x), cost - cost_new
        x, r, jac, curv, cost = x_new, r_new, jac_new, curv_new, cost_new
        lam = max(lam / 10.0, 1e-12)
        if np.all(moved <= 1e-13 * (1.0 + np.abs(x))) or fell <= 1e-13 * cost:
            return x
    raise RuntimeError(f"no convergence in {_NEWTON_MAXITER} iterations")


def fit_stretched_decay(t, y, sigma, start, bounds):
    """W = exp(-(t / T2)^n) over (T2, n) in ``bounds``, searched in
    (log T2, n)."""
    t, y, w = _prepare(t, y, sigma)
    x0, lo, hi = _box(start, *bounds)

    def residual(x):
        """r, dr/d(u, n) and sum_i r_i d2r_i/d(u, n)2 at u = log T2.
        With z = (t/T2)^n and L = log(t/T2): dz/du = -n z, dz/dn = L z,
        and d2r/dadb = -w m z K_ab with K_uu = n^2 (z - 1),
        K_un = 1 + n L (1 - z), K_nn = L^2 (z - 1)."""
        u, n = x
        z = np.power(t / math.exp(u), n)
        m = np.exp(-z)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.where(t > 0, np.log(t) - u, 0.0)
        r = (y - m) * w
        mzw = m * z * w
        rk = -r * mzw
        cross = rk @ (1 + n * log_ratio * (1 - z))
        curv = np.array([[n * n * (rk @ (z - 1)), cross],
                         [cross, rk @ (log_ratio**2 * (z - 1))]])
        return r, np.column_stack((-n * mzw, log_ratio * mzw)), curv

    u0 = np.array([math.log(x0[0]), x0[1]])
    _finite_start(residual(u0)[0])
    log_lo, log_hi = (np.array([math.log(v[0]), v[1]]) for v in (lo, hi))
    # start from the best point of a coarse grid around x0: from a poor
    # start the search can reach the plateau where the model saturates
    # at 0 or 1 and the gradient vanishes
    steps = [(du, dn) for du in np.log([0.1, 0.3, 1.0, 3.0, 10.0])
             for dn in (-0.5, 0.0, 1.0, 3.0)]
    grid = np.clip(u0 + np.array(steps), log_lo, log_hi)
    z = np.power(t / np.exp(grid[:, :1]), grid[:, 1:])
    costs = np.sum(((y - np.exp(-z)) * w) ** 2, axis=1)
    u, n = _newton(residual, grid[np.nanargmin(costs)], log_lo, log_hi)
    t2 = min(max(math.exp(u), lo[0]), hi[0])
    r, jac, _ = residual(np.array([math.log(t2), n]))
    if not jac.any():
        # the search ended on the plateau where every model value is 0, so
        # (T2, n) is where it stopped, not a fit; no singular value is kept,
        # and the zero matrix that leaves would claim exact values
        return np.array([t2, n]), np.full((2, 2), np.inf)
    return np.array([t2, n]), _covariance(jac / [t2, 1.0], r, sigma is None)


def fit_rb_decay(m, y, sigma, start, bounds):
    """y = a p^m + b over (a, p, b) in ``bounds``: for each p the best
    (a, b) in their box is exact (the unconstrained solve when it lies
    inside, else the best of the four edges), which leaves a 1-D search
    over p.  The derivative of that profile is the partial derivative in
    p at the (a, b) it picks."""
    m, y, w = _prepare(m, y, sigma)
    x0, lo, hi = _box(start, *bounds)
    _finite_start((y - x0[0] * x0[1] ** m - x0[2]) * w)
    w2 = w * w
    (a_lo, p_lo, b_lo), (a_hi, p_hi, b_hi) = lo, hi

    def linear(p):
        f = p ** m
        sff, sf, s1 = w2 @ (f * f), w2 @ f, w2.sum()
        sfy, sy = w2 @ (f * y), w2 @ y
        det = sff * s1 - sf * sf
        if det > 0:
            a, b = (sfy * s1 - sf * sy) / det, (sff * sy - sf * sfy) / det
            if a_lo <= a <= a_hi and b_lo <= b <= b_hi:
                return a, b, f
        edges = [(a, min(max((sy - a * sf) / s1, b_lo), b_hi)) for a in (a_lo, a_hi)]
        if sff > 0:
            edges += [(min(max((sfy - b * sf) / sff, a_lo), a_hi), b)
                      for b in (b_lo, b_hi)]
        a, b = min(edges, key=lambda ab: float(w2 @ (y - ab[0] * f - ab[1]) ** 2))
        return a, b, f

    def fun(p):  # half the profile cost and its derivative
        a, b, f = linear(p)
        r = y - a * f - b
        return 0.5 * float(w2 @ r**2), -float(w2 @ (r * a * m * p ** (m - 1)))

    # from the best point of a scan that crowds towards p = 1: the profile
    # is flat wherever a sits on its bound, so a search from x0 alone can
    # stall there
    scan = np.append(p_hi - (p_hi - p_lo) * np.geomspace(1e-4, 1.0, 24), x0[1])
    p = _descend(fun, scan[int(np.argmin([fun(q)[0] for q in scan]))],
                 p_lo, p_hi, 1e-3)
    a, b, f = linear(p)
    if a == 0:
        # no amplitude leaves p free: report no decay, where curve_fit's
        # path from the start ends too, with the best level there
        p = p_hi
        a, b, f = linear(p)
    jac = np.column_stack((f, a * m * p ** (m - 1), np.ones_like(f))) * w[:, None]
    return np.array([a, p, b]), _covariance(jac, (y - a * f - b) * w, sigma is None)
