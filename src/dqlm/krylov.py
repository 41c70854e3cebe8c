"""Adaptive Krylov exponential integrator for dv/dt = M v.

`integrate` steps from the first to the last of a grid of times and
returns the solution at each of them. It reads ``matvec(v)`` as the
product M v with one constant matrix M: each step approximates
exp(h M) y on the Krylov space span{y, M y, ..., M^m y}, built by
Arnoldi with full reorthogonalization (classical Gram-Schmidt, applied
twice). ``nfev`` counts the products M y. The Krylov dimension a step
needs grows like sqrt(|h M|) (Hochbruck & Lubich, SIAM J. Numer. Anal.
34, 1911 (1997)), so a stiff generator does not hold the steps to the
order of 1/|M|, as it does an explicit Runge-Kutta method.

The error of a step is Expokit's corrected a-posteriori estimate
(Sidje, ACM TOMS 24, 130 (1998)): the step takes exp(h H) e1 of the
(m+2) x (m+2) augmented Hessenberg matrix H, keeps the correction along
the (m+1)-th basis vector, and reads the estimate off the last two
entries. As in Expokit the tolerance is per unit time: a step of
length h may have an estimate of at most (atol + rtol |y|) h / T, with
|y| at the start of the step and T the length of the whole interval,
so the estimates of all the steps add up to at most atol + rtol |y|.
Both norms are 2-norms, which a unitary change of coordinates or zero
padding leaves as they are: the real and the complex coordinates of one
state, and a system and a coupled block of it that holds the state,
take the same steps.

A step grows m one product at a time and tests the estimate at m = 1,
2, 4, 8, ... and at `KRYLOV_CAP`. At the cap it keeps the basis and
halves h, with no further product, until the estimate passes; below
ten units in the last place of the interval's end the integration
fails with `SolverError`. The next step tries twice the step just taken
if that one passed below the cap, else the same step; the first tries
the whole interval. A Krylov space that M maps into itself (happy
breakdown: the new direction is below `BREAKDOWN_TOL` of the product it
came from) holds exp(h M) y for every h, so that step runs to the end
of the interval. A zero y stays zero, without a product. Inside a step
the solution is beta V exp(s H) e1 for the time s since the step began
(`_dense`): the grid times the step covers are read off it in one
product, and so is the step's end value.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .liouvillian import SolverError

KRYLOV_CAP = 40
BREAKDOWN_TOL = 1e-13
EPS = np.finfo(float).eps


@dataclass
class KrylovResult:
    """The solution at each grid time (one column each), the products
    M v, the steps taken and the largest Krylov dimension of a step."""

    frames: np.ndarray
    nfev: int = 0
    steps: int = 0
    krylov_dim_max: int = 0


def _exp_e1(hess, h):
    """exp(h hess) e1. A trial step far too long for its basis may
    overflow; `_error_estimate` then rejects it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return expm(h * hess)[:, 0]


def _error_estimate(col, beta, avnorm):
    """Expokit's corrected estimate from exp(h H) e1 of the augmented H;
    `avnorm` is |M v_{m+1}|. Infinite unless all of it is finite."""
    if not (np.isfinite(col).all() and np.isfinite(avnorm)):
        return np.inf
    p1 = beta * abs(col[-2])
    p2 = beta * abs(col[-1]) * avnorm
    if p1 > 10.0 * p2:
        return p2
    if p1 > p2:
        return p1 * p2 / (p1 - p2)
    return p1


def _dense(basis, hess, beta, times):
    """beta V^T exp(s H) e1 on one step's Krylov basis, one column for
    each time s since the step began."""
    size = basis.shape[0]
    coef = np.empty((size, times.size), dtype=hess.dtype)
    for j, s in enumerate(times):
        coef[:, j] = _exp_e1(hess, s)[:size]
    return beta * (basis.T @ coef)


def _step(product, y, beta, h, rate, floor):
    """One step from y, |y| = beta, tried at length h, with an estimate
    of at most `rate` per unit time (see the module docstring). Returns
    the length taken (inf where the basis holds exp(h M) y for every h),
    the next step's trial length, the basis, the Hessenberg matrix and
    the Krylov dimension."""
    basis = np.empty((KRYLOV_CAP + 1, y.size), dtype=y.dtype)
    hess = np.zeros((KRYLOV_CAP + 2, KRYLOV_CAP + 2), dtype=y.dtype)
    basis[0] = y / beta
    m = 0
    while True:
        w = product(basis[m])
        avnorm = float(np.linalg.norm(w))
        if m == KRYLOV_CAP or (m > 0 and (m & (m - 1)) == 0):
            # augmented H: column m is e_{m+1} until Arnoldi fills it
            aug = hess[:m + 2, :m + 2]
            aug[m + 1, m] = 1.0
            err = _error_estimate(_exp_e1(aug, h), beta, avnorm)
            if err <= rate * h:
                return h, 2 * h, basis[:m + 1], aug, m
            if m == KRYLOV_CAP:
                while not err <= rate * h:
                    h /= 2
                    if h < floor:
                        raise SolverError(
                            "integration failed: Krylov step fell below "
                            f"the smallest step at dimension {m}")
                    err = _error_estimate(_exp_e1(aug, h), beta, avnorm)
                return h, h, basis[:m + 1], aug, m
        block = basis[:m + 1]
        first = (block @ w.conj()).conj()
        w = w - first @ block
        second = (block @ w.conj()).conj()
        w = w - second @ block
        hess[:m + 1, m] = first + second
        norm = float(np.linalg.norm(w))
        if norm <= BREAKDOWN_TOL * avnorm:
            # M maps the basis into its span: exact for every h
            return np.inf, h, block, hess[:m + 1, :m + 1], m + 1
        hess[m + 1, m] = norm
        basis[m + 1] = w / norm
        m += 1


def integrate(matvec, y0, times, rtol=1e-3, atol=1e-6):
    """Solve dv/dt = M v, v(times[0]) = y0, with ``matvec(v)`` = M v, at
    each of the `times`, at least two and strictly increasing (see the
    module docstring). An rtol below 100 machine epsilons is raised to
    that, with a warning."""
    if rtol < 100 * EPS:
        # the floor and the warning of scipy's own ODE solvers
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                      stacklevel=3)
        rtol = 100 * EPS
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise SolverError("time grid must be strictly increasing, length >= 2")
    y = np.asarray(y0)
    y = y.astype(np.result_type(y, float), copy=False)  # ints as floats
    t, t_end = float(times[0]), float(times[-1])
    result = KrylovResult(np.zeros((y.size, times.size), dtype=y.dtype))
    if y.size == 0:
        return result

    def product(v):
        result.nfev += 1
        return matvec(v)

    interval = h_next = t_end - t
    sampled = 0  # the grid times before this one are filled in
    while t < t_end:
        result.steps += 1
        beta = float(np.linalg.norm(y))
        if beta == 0.0:
            break  # y stays 0, and so do the frames left
        # tolerance per unit time: the steps' errors add up to at most
        # atol + rtol |y| over the interval
        rate = (atol + rtol * beta) / interval
        floor = 10 * np.spacing(max(abs(t), abs(t_end)))
        h, h_next, basis, hess, dim = _step(product, y, beta,
                                            min(h_next, t_end - t), rate,
                                            floor)
        result.krylov_dim_max = max(result.krylov_dim_max, dim)
        t_old, t = t, (t_end if h >= t_end - t else t + h)
        covered = np.searchsorted(times, t, side="right")
        if covered > sampled:
            result.frames[:, sampled:covered] = _dense(
                basis, hess, beta, times[sampled:covered] - t_old)
            sampled = covered
        y = _dense(basis, hess, beta, np.array([t - t_old]))[:, 0]
    return result
