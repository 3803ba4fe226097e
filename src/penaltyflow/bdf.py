"""The stiff stepper: the variable-order BDF method with the NDF
modification of Shampine & Reichelt, "The MATLAB ODE Suite", SIAM J.
Sci. Comput. 18(1), 1-22 (1997), as scipy.integrate.BDF implements it.

This is that implementation narrowed to the one case the integrator
uses: a real, dense system stepped forward in time with no step-size
ceiling, with either an exact Jacobian callable or, without one, the
adaptive forward-difference estimate of scipy's ``num_jac``. Every
floating-point operation, and the order of them, is scipy's, so a
trajectory is bit-identical to what scipy's BDF computes; the test
suite steps the two side by side. The LU factors come straight from
LAPACK's dgetrf/dgetrs.
"""

import math
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgetrf, dgetrs

from .problem import _finite, _norm

__all__ = ["BDF"]

MAX_ORDER = 5
NEWTON_MAXITER = 4
MIN_FACTOR = 0.2
MAX_FACTOR = 10

EPS = np.finfo(float).eps
# forward-difference step control: a column whose largest difference is
# below REJECT times the size of f is retried with a 10x larger step, and
# the next step grows below SMALL and shrinks above BIG
NUM_JAC_DIFF_REJECT = EPS ** 0.875
NUM_JAC_DIFF_SMALL = EPS ** 0.75
NUM_JAC_DIFF_BIG = EPS ** 0.25
NUM_JAC_MIN_FACTOR = 1e3 * EPS
NUM_JAC_FACTOR_INCREASE = 10
NUM_JAC_FACTOR_DECREASE = 0.1

# the NDF constants kappa of orders 0..5, the BDF gamma_k = sum_{j<=k} 1/j,
# and from them the leading coefficients and error constants
_KAPPA = np.array([0, -0.1850, -1/9, -0.0823, -0.0415, 0])
_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, MAX_ORDER + 1))))
_ALPHA = (1 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1 / np.arange(1, MAX_ORDER + 2)


def _compute_R(order, factor):
    """The matrix that rescales the differences array by ``factor``."""
    I = np.arange(1, order + 1)[:, None]
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.cumprod(M, axis=0)


_U = [_compute_R(order, 1) for order in range(MAX_ORDER + 1)]


def _change_D(D, order, factor):
    """Rescale the differences array D in place to a step size changed
    by ``factor``."""
    RU = _compute_R(order, factor).dot(_U[order])
    D[:order + 1] = np.dot(RU.T, D[:order + 1])


def _rms(v):
    return _norm(v) / v.size ** 0.5


def _num_jac(fun, t, y, f, threshold, factor):
    """Forward-difference Jacobian of ``fun`` at (t, y), where f is
    fun(t, y) and ``factor`` the relative step per column (None on the
    first call). Returns the Jacobian and the factors for the next call.

    Each step follows the sign of f and is kept well clear of the
    round-off in f: a column whose difference drowns in it is retried
    with a 10x larger step, and the factor of every column adapts to how
    far its difference sat from it."""
    n = y.shape[0]
    factor = np.full(n, EPS ** 0.5) if factor is None else factor.copy()
    f_sign = 2 * (f >= 0).astype(float) - 1
    y_scale = f_sign * np.maximum(threshold, np.abs(y))
    h = (y + factor * y_scale) - y
    for i in np.nonzero(h == 0)[0]:
        while h[i] == 0:
            factor[i] *= 10
            h[i] = (y[i] + factor[i] * y_scale[i]) - y[i]

    h_vecs = np.diag(h)
    f_new = _columns(fun, t, y[:, None] + h_vecs)
    diff = f_new - f[:, None]
    max_ind = np.argmax(np.abs(diff), axis=0)
    r = np.arange(n)
    max_diff = np.abs(diff[max_ind, r])
    scale = np.maximum(np.abs(f[max_ind]), np.abs(f_new[max_ind, r]))

    diff_too_small = max_diff < NUM_JAC_DIFF_REJECT * scale
    if np.any(diff_too_small):
        ind, = np.nonzero(diff_too_small)
        new_factor = NUM_JAC_FACTOR_INCREASE * factor[ind]
        h_new = (y[ind] + new_factor * y_scale[ind]) - y[ind]
        h_vecs[ind, ind] = h_new
        f_new = _columns(fun, t, y[:, None] + h_vecs[:, ind])
        diff_new = f_new - f[:, None]
        max_ind = np.argmax(np.abs(diff_new), axis=0)
        r = np.arange(ind.shape[0])
        max_diff_new = np.abs(diff_new[max_ind, r])
        scale_new = np.maximum(np.abs(f[max_ind]), np.abs(f_new[max_ind, r]))

        update = max_diff[ind] * scale_new < max_diff_new * scale[ind]
        if np.any(update):
            update, = np.nonzero(update)
            update_ind = ind[update]
            factor[update_ind] = new_factor[update]
            h[update_ind] = h_new[update]
            diff[:, update_ind] = diff_new[:, update]
            scale[update_ind] = scale_new[update]
            max_diff[update_ind] = max_diff_new[update]

    diff /= h

    factor[max_diff < NUM_JAC_DIFF_SMALL * scale] *= NUM_JAC_FACTOR_INCREASE
    factor[max_diff > NUM_JAC_DIFF_BIG * scale] *= NUM_JAC_FACTOR_DECREASE
    factor = np.maximum(factor, NUM_JAC_MIN_FACTOR)
    return diff, factor


def _columns(fun, t, Y):
    """fun applied to each column of Y, one call per column."""
    F = np.empty_like(Y)
    for i, yi in enumerate(Y.T):
        F[:, i] = fun(t, yi)
    return F


class BDF:
    """One-step-at-a-time integration of y' = fun(t, y) from (t0, y0)
    towards t_bound > t0, starting with step size
    0 < first_step <= t_bound - t0.

    ``jac(t, y)`` returns the dense Jacobian; when it is None the
    Jacobian is estimated by forward differences of fun. ``step()``
    advances (t, y) by one accepted step and sets ``status`` to
    "finished" once t reaches t_bound, or to "failed" when the step size
    would drop below 10 ulp(t). nfev counts the calls of fun outside the
    difference estimate, njev the Jacobian evaluations and nlu the LU
    factorizations. ``lu`` and ``solve_lu`` are looked up on the
    instance at every use.
    """

    def __init__(self, fun, t0, y0, t_bound, *, jac, rtol, atol, first_step):
        self._fun = fun
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.status = "running"
        self.nfev = self.njev = self.nlu = 0
        self.rtol, self.atol = rtol, atol
        f = self.fun(t0, y0)
        self.h_abs = first_step
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
        self._jac = jac
        self.jac_factor = None
        self.J = self.jac(t0, y0)
        self.I = np.identity(y0.size)
        self.D = np.empty((MAX_ORDER + 3, y0.size))
        self.D[0] = y0
        self.D[1] = f * self.h_abs
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def fun(self, t, y):
        self.nfev += 1
        return self._fun(t, y)

    def jac(self, t, y):
        self.njev += 1
        if self._jac is not None:
            return self._jac(t, y)
        J, self.jac_factor = _num_jac(self._fun, t, y, self._fun(t, y),
                                      self.atol, self.jac_factor)
        return J

    def lu(self, A):
        """LU factors (lu, piv) of A, which may be overwritten. A
        non-finite A raises ValueError; a singular one warns and is
        factored."""
        self.nlu += 1
        if not _finite(A):
            raise ValueError("array must not contain infs or NaNs")
        lu, piv, info = dgetrf(A, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrf")
        if info > 0:
            warnings.warn(f"Diagonal number {info} is exactly zero. "
                          "Singular matrix.", LinAlgWarning, stacklevel=2)
        return lu, piv

    def solve_lu(self, LU, b):
        """The solution of A x = b from the factors of A; b may be
        overwritten. A non-finite b raises ValueError."""
        if not _finite(b):
            raise ValueError("array must not contain infs or NaNs")
        x, info = dgetrs(*LU, b, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in argument {-info} of dgetrs")
        return x

    def _newton(self, t_new, y_predict, c, psi, LU, scale):
        """Simplified Newton iterations on the BDF equation; returns
        (converged, iterations, y, d) with d = y - y_predict."""
        d = 0
        y = y_predict.copy()
        dy_norm_old = None
        converged = False
        for k in range(NEWTON_MAXITER):
            f = self.fun(t_new, y)
            if not _finite(f):
                break
            dy = self.solve_lu(LU, c * f - psi - d)
            dy_norm = _rms(dy / scale)
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if (rate is not None and (rate >= 1 or
                    rate ** (NEWTON_MAXITER - k) / (1 - rate) * dy_norm
                    > self.newton_tol)):
                break
            y += dy
            d += dy
            if (dy_norm == 0 or rate is not None
                    and rate / (1 - rate) * dy_norm < self.newton_tol):
                converged = True
                break
            dy_norm_old = dy_norm
        return converged, k + 1, y, d

    def step(self):
        t = self.t
        D = self.D
        order = self.order
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            _change_D(D, order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs

        J = self.J
        LU = self.LU
        current_jac = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
                _change_D(D, order, (t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None
            h = h_abs = t_new - t

            y_predict = np.add.reduce(D[:order + 1])
            scale = self.atol + self.rtol * np.abs(y_predict)
            psi = np.dot(D[1:order + 1].T, _GAMMA[1:order + 1]) / _ALPHA[order]
            converged = False
            c = h / _ALPHA[order]
            while not converged:
                if LU is None:
                    LU = self.lu(self.I - c * J)
                converged, n_iter, y_new, d = self._newton(
                    t_new, y_predict, c, psi, LU, scale)
                if not converged:
                    if current_jac:
                        break
                    J = self.jac(t_new, y_predict)
                    LU = None
                    current_jac = True
            if not converged:
                factor = 0.5
                h_abs *= factor
                _change_D(D, order, factor)
                self.n_equal_steps = 0
                LU = None
                continue

            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER
                                                       + n_iter)
            scale = self.atol + self.rtol * np.abs(y_new)
            error_norm = _rms(_ERROR_CONST[order] * d / scale)
            # written so that a NaN error norm is accepted, as in scipy
            if not error_norm > 1:
                break
            factor = max(MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            _change_D(D, order, factor)
            self.n_equal_steps = 0
            # the Newton iterations converged, so LU is kept

        self.n_equal_steps += 1
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.J = J
        self.LU = LU
        if t_new >= self.t_bound:
            self.status = "finished"

        # D held the differences of the previous interpolating polynomial
        # and d is the (order + 1)-th difference at the new point
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps < order + 1:
            return

        # after order + 1 steps of equal size, move to the order (one
        # down, same, one up) that allows the largest next step
        if order > 1:
            error_m_norm = _rms(_ERROR_CONST[order - 1] * D[order] / scale)
        else:
            error_m_norm = np.inf
        if order < MAX_ORDER:
            error_p_norm = _rms(_ERROR_CONST[order + 1] * D[order + 2] / scale)
        else:
            error_p_norm = np.inf
        error_norms = np.array([error_m_norm, error_norm, error_p_norm])
        with np.errstate(divide='ignore'):
            factors = error_norms ** (-1 / np.arange(order, order + 3))

        order += np.argmax(factors) - 1
        self.order = order
        factor = min(MAX_FACTOR, safety * np.max(factors))
        self.h_abs *= factor
        _change_D(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None
