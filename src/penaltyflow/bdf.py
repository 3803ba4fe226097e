"""The stiff stepper: the variable-order BDF method with the NDF
modification of Shampine & Reichelt, "The MATLAB ODE Suite", SIAM J.
Sci. Comput. 18(1), 1-22 (1997), as scipy.integrate.BDF implements it.

This is that implementation narrowed to the one case the integrator
uses: a real, dense system stepped forward in time with no step-size
ceiling and a Jacobian callable, which the integrator always supplies
as the flow Jacobian. The LU factors come straight from LAPACK's
dgetrf/dgetrs. Every floating-point operation, and the order of them,
is scipy's, so a trajectory is bit-identical to what scipy's BDF
computes with the same Jacobian callable; the test suite steps the two
side by side. The one departure is at a dead end: where scipy raises on
a non-finite Newton system or warns on a singular one, the port fails
the Newton iteration once its update is not finite, and where scipy
divides by a zero step size, the port fails the step.
"""

import math

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .problem import _finite, _norm

__all__ = ["BDF"]

MAX_ORDER = 5
NEWTON_MAXITER = 4
MIN_FACTOR = 0.2
MAX_FACTOR = 10

EPS = np.finfo(float).eps

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


class BDF:
    """One-step-at-a-time integration of y' = fun(t, y) from (t0, y0)
    towards t_bound > t0. The first step size is chosen from fun near
    the start, at the cost of one extra call of fun (``_initial_step``).

    ``jac(t, y)`` returns the dense Jacobian. ``step()`` advances (t, y)
    by one accepted step and sets ``status`` to "finished" once t
    reaches t_bound, or to "failed" when the step size is not > 0 or
    would drop below 10 ulp(t). A step whose Newton iteration diverges
    or meets a non-finite update is retried with a fresh Jacobian, then
    halved. nfev counts the calls of fun, njev those of jac and nlu the
    LU factorizations. ``lu`` and ``solve_lu`` are looked up on the
    instance at every use.
    """

    def __init__(self, fun, t0, y0, t_bound, *, jac, rtol, atol):
        self._fun = fun
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.status = "running"
        self.nfev = self.njev = self.nlu = 0
        self.rtol, self.atol = rtol, atol
        f = self.fun(t0, y0)
        self.h_abs = self._initial_step(t0, y0, f)
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
        self._jac = jac
        self.J = self.jac(t0, y0)
        self.I = np.identity(y0.size)
        self.D = np.empty((MAX_ORDER + 3, y0.size))
        self.D[0] = y0
        self.D[1] = f * self.h_abs
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def _initial_step(self, t0, y0, f0):
        """The first step size by the rule of Hairer, Norsett & Wanner,
        "Solving Ordinary Differential Equations I", Sec. II.4, at
        order 1, computed as scipy's select_initial_step does. A trial
        step h0 of 1% of |y0| / |f0| in the error norm (1e-6 when either
        is tiny) probes how fast fun changes, at the cost of one call of
        fun; the step is at most 100 h0 and at most t_bound - t0."""
        interval_length = self.t_bound - t0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.5
        return min(100 * h0, h1, interval_length)

    def fun(self, t, y):
        self.nfev += 1
        return self._fun(t, y)

    def jac(self, t, y):
        self.njev += 1
        return self._jac(t, y)

    def lu(self, A):
        """LU factors (lu, piv) of A, which may be overwritten; a
        non-finite or singular A is factored as it is."""
        self.nlu += 1
        return dgetrf(A, overwrite_a=True)[:2]

    def solve_lu(self, LU, b):
        """The solution of A x = b from the factors of A; b may be
        overwritten."""
        return dgetrs(*LU, b, overwrite_b=True)[0]

    def _newton(self, t_new, y_predict, c, psi, LU, scale):
        """Simplified Newton iterations on the BDF equation; returns
        (converged, iterations, y, d) with d = y - y_predict."""
        d = 0
        y = y_predict.copy()
        dy_norm_old = None
        converged = False
        for k in range(NEWTON_MAXITER):
            f = self.fun(t_new, y)
            dy = self.solve_lu(LU, c * f - psi - d)
            # a non-finite f, a non-finite or singular I - cJ, or an overflow
            if not _finite(dy):
                break
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
        # written so that NaN fails
        if not self.h_abs > 0:
            self.status = "failed"
            return
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
