"""Adaptive Krylov exponential integrator for dv/dt = M v.

`KrylovExpm` is a `scipy.integrate.OdeSolver`, so it runs under
`solve_ivp` (``method=KrylovExpm``). It reads the right-hand side
``fun(t, y)`` as the product M y with one constant matrix M: each step
approximates exp(h M) y on the Krylov space span{y, M y, ..., M^m y},
built by Arnoldi with full reorthogonalization (classical Gram-Schmidt,
applied twice). ``nfev`` counts the products M y. The Krylov dimension
a step needs grows like sqrt(|h M|) (Hochbruck & Lubich, SIAM J. Numer.
Anal. 34, 1911 (1997)), so a stiff generator does not hold the steps to
the order of 1/|M|, as it does an explicit Runge-Kutta method.

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
fails. The next step tries twice the step just taken if that one
passed below the cap, else the same step; the first tries the whole
interval. A Krylov space that M maps into itself (happy breakdown: the
new direction is below `BREAKDOWN_TOL` of the product it came from)
holds exp(h M) y for every h, so that step runs to the end of the
interval. A zero y stays zero, without a product. Between steps the
solution is beta V exp(s H) e1 for the time s since the step began
(`KrylovDenseOutput`).
"""

import warnings

import numpy as np
from scipy.integrate import DenseOutput, OdeSolver
from scipy.linalg import expm

KRYLOV_CAP = 40
BREAKDOWN_TOL = 1e-13
EPS = np.finfo(float).eps


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


class KrylovDenseOutput(DenseOutput):
    """y(t_old + s) = beta V^T exp(s H) e1 on one step's Krylov basis."""

    def __init__(self, t_old, t, basis, hess, beta):
        super().__init__(t_old, t)
        self.basis = basis
        self.hess = hess
        self.beta = beta

    def _call_impl(self, t):
        times = np.atleast_1d(t) - self.t_old
        size = self.basis.shape[0]
        coef = np.empty((size, times.size), dtype=self.hess.dtype)
        for j, s in enumerate(times):
            coef[:, j] = _exp_e1(self.hess, s)[:size]
        y = self.beta * (self.basis.T @ coef)
        return y[:, 0] if np.ndim(t) == 0 else y


class KrylovExpm(OdeSolver):
    """Arnoldi exponential steps for dv/dt = M v (see the module
    docstring). `stats`, a dict, receives ``steps``, the steps taken, and
    ``krylov_dim_max``, the largest Krylov dimension of a step."""

    def __init__(self, fun, t0, y0, t_bound, rtol=1e-3, atol=1e-6,
                 vectorized=False, stats=None):
        super().__init__(fun, t0, y0, t_bound, vectorized,
                         support_complex=True)
        if rtol < 100 * EPS:
            # the floor and the warning of solve_ivp's own methods
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                          stacklevel=3)
            rtol = 100 * EPS
        if atol < 0:
            raise ValueError("`atol` must be positive.")
        self.rtol, self.atol = rtol, atol
        self.interval = abs(t_bound - t0)
        self.h_next = self.interval
        self.stats = {} if stats is None else stats
        self.stats.update(steps=0, krylov_dim_max=0)
        self._step = None

    def _step_impl(self):
        t, y = self.t, self.y
        self._step = None  # the last step's basis goes before this one's comes
        span = abs(self.t_bound - t)
        beta = float(np.linalg.norm(y))
        if beta == 0.0:
            return self._accept(span, np.zeros((1, self.n), y.dtype),
                                np.zeros((1, 1)), 0.0, 0)
        # tolerance per unit time: the steps' errors add up to at most
        # atol + rtol |y| over the interval
        rate = (self.atol + self.rtol * beta) / self.interval
        h = min(self.h_next, span)
        basis = np.empty((KRYLOV_CAP + 1, self.n), dtype=y.dtype)
        hess = np.zeros((KRYLOV_CAP + 2, KRYLOV_CAP + 2), dtype=y.dtype)
        basis[0] = y / beta
        m = 0
        while True:
            w = self.fun(t, basis[m])
            avnorm = float(np.linalg.norm(w))
            if m == KRYLOV_CAP or (m > 0 and (m & (m - 1)) == 0):
                # augmented H: column m is e_{m+1} until Arnoldi fills it
                aug = hess[:m + 2, :m + 2]
                aug[m + 1, m] = 1.0
                err = _error_estimate(_exp_e1(aug, self.direction * h),
                                      beta, avnorm)
                if err <= rate * h:
                    break
                if m == KRYLOV_CAP:
                    floor = 10 * np.spacing(max(abs(t), abs(self.t_bound)))
                    while not err <= rate * h:
                        h /= 2
                        if h < floor:
                            return False, ("Krylov step fell below the "
                                           f"smallest step at dimension {m}")
                        err = _error_estimate(
                            _exp_e1(aug, self.direction * h), beta, avnorm)
                    self.h_next = h
                    return self._accept(h, basis[:m + 1], aug, beta, m)
            block = basis[:m + 1]
            first = (block @ w.conj()).conj()
            w = w - first @ block
            second = (block @ w.conj()).conj()
            w = w - second @ block
            hess[:m + 1, m] = first + second
            norm = float(np.linalg.norm(w))
            if norm <= BREAKDOWN_TOL * avnorm:
                # M maps the basis into its span: exact for every h
                return self._accept(span, block, hess[:m + 1, :m + 1], beta,
                                    m + 1)
            hess[m + 1, m] = norm
            basis[m + 1] = w / norm
            m += 1
        self.h_next = 2 * h
        return self._accept(h, basis[:m + 1], aug, beta, m)

    def _accept(self, h, basis, hess, beta, dim):
        """End the step after h; exp(s hess) e1 on `basis` is the solution
        inside it."""
        t_old = self.t
        self._step = (basis, hess, beta)
        self.t = (self.t_bound if h >= abs(self.t_bound - t_old)
                  else t_old + self.direction * h)
        self.y = self._dense_output(t_old, self.t)(self.t)
        self.stats["steps"] += 1
        self.stats["krylov_dim_max"] = max(self.stats["krylov_dim_max"], dim)
        return True, None

    def _dense_output(self, t_old, t):
        return KrylovDenseOutput(t_old, t, *self._step)

    def _dense_output_impl(self):
        return self._dense_output(self.t_old, self.t)
