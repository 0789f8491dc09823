"""Fixed-step classical RK4 with divergence detection.

All flows in this package are smooth and non-stiff at desk scale, so a
plain fourth-order scheme with caller-supplied dt is enough; oracle
comparisons against matrix exponentials are done in the test suite.

Two entry points share one step grid, one divergence contract and one
return value, ``(times, states)`` with states[i] the state at times[i]:

- ``rk4_path(f, y0, t_end, dt, post=None)`` evaluates the field four
  times per step and serves any field, nonlinear ones included.  The
  optional ``post`` map sees every new finite state: its value is stored
  and stepped on (a projection such as renormalisation), and a value of
  None ends the path at the last stored state (a domain guard), so a
  path shorter than the grid means the integration stopped early.
- ``rk4_affine_path(a, b, y0, t_end, dt)`` serves affine fields
  y' = a y + b.  For them the four RK4 stages collapse into one fixed
  map y -> P y + q with M = dt a,

      P = I + M + M^2/2 + M^3/6 + M^4/24,
      q = dt (I + M/2 + M^2/6 + M^3/24) b,

  the degree-4 Taylor truncation of the augmented matrix exponential
  exp(dt [[a, b], [0, 0]]) (Van Loan 1978).  It is the same method of
  the same order, so paths agree with ``rk4_path`` up to rounding, at
  one matrix product per step.
"""

from __future__ import annotations

import numpy as np


class DivergenceError(RuntimeError):
    """Integration produced non-finite values.

    ``last_valid_time`` is the last time with a finite state; ``partial``
    holds (times, states) up to and including that time.
    """

    def __init__(self, last_valid_time, partial=None):
        super().__init__(
            f"integration diverged after t = {last_valid_time:.6g}")
        self.last_valid_time = last_valid_time
        self.partial = partial


def time_grid(t_end, dt):
    """Times 0, dt, ..., n dt with n = round(t_end / dt)."""
    if not (0 < dt < np.inf and 0 < t_end < np.inf):
        raise ValueError("need finite dt > 0 and t_end > 0")
    return np.arange(int(round(t_end / dt)) + 1) * dt


def _diverged(times, states, i):
    """Error for a non-finite states[i + 1]: states[:i + 1] are finite."""
    return DivergenceError(float(times[i]),
                           partial=(times[:i + 1].copy(),
                                    states[:i + 1].copy()))


def rk4_path(f, y0, t_end, dt, post=None):
    """Integrate y' = f(y) from 0 to t_end with fixed step dt.

    Returns (times, states) with states[i] the state at times[i].  With
    ``post``, each new finite state y is stored as post(y); if post(y) is
    None the path ends at the last stored state.
    """
    times = time_grid(t_end, dt)
    y = np.array(y0, dtype=float)
    states = np.empty((len(times),) + y.shape)
    states[0] = y
    for i in range(len(times) - 1):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise _diverged(times, states, i)
        if post is not None:
            y = post(y)
            if y is None:
                return times[:i + 1], states[:i + 1]
        states[i + 1] = y
    return times, states


def rk4_affine_path(a, b, y0, t_end, dt):
    """RK4 path of y' = a y + b (b = None for y' = a y) from 0 to t_end.

    Same grid, return value and DivergenceError as ``rk4_path``; each
    step is y -> P y + q with the one-step matrix of the module docstring.
    """
    times = time_grid(t_end, dt)
    m = dt * np.asarray(a, dtype=float)
    # Horner form of S = I + M/2 + M^2/6 + M^3/24; P = I + M S, q = dt S b
    eye = np.eye(len(m))
    s = eye + m @ (eye / 2.0 + m @ (eye / 6.0 + m / 24.0))
    p = eye + m @ s
    q = None if b is None else dt * (s @ np.asarray(b, dtype=float))
    states = np.empty((len(times), len(m)))
    states[0] = y0
    for i in range(len(times) - 1):
        y = states[i + 1]
        np.matmul(p, states[i], out=y)
        if q is not None:
            y += q
    finite = np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        raise _diverged(times, states, int(np.argmin(finite)))
    return times, states
