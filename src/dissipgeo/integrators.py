"""Fixed-step classical RK4 with divergence detection.

All flows in this package are smooth and non-stiff at desk scale, so a
plain fourth-order scheme with caller-supplied dt is enough; every gkls,
linear and pure-state run reports an oracle against a matrix exponential,
``checks.expm``, which shares nothing with the routes here.

Every route returns ``(times, states)`` on the grid of ``time_grid``,
states[i] the state at times[i].  ``rk4_path(f, y0, t_end, dt, post=None)``
evaluates the field four times per step, serves any field and alone
raises DivergenceError.  The optional ``post`` map sees every new finite
state: its value is stored and stepped on (a projection such as
renormalisation), and a value of None ends the path at the last stored
state (a domain guard), so a path shorter than the grid means the
integration stopped early.

A fast route is a fill, fill(y0, steps, dt) -> states or None: it
returns its own path, row 0 y0, with fewer than steps + 1 rows only when
a domain guard ends it, or None to decline, and never calls
``rk4_path``.  ``fast_path`` owns the grid, the one np.errstate around a
fill, and the hand-off of a declined run, whole and from y0, to
``rk4_path``, which then decides where it stops and what it raises.
Every fill is built on the one linear fill here, ``linear_fill``; each
flow module keeps its own use of it next to its field (``gkls`` keeps the
x columns of its affine field's lift, ``purestate`` divides each row of
the linear flow z' = M z by its norm, ``mechanics`` steps S of the
projectable contact flow in closed form along the z path):

- ``linear_fill(g, y0, steps, dt, post=None)``, behind
  ``rk4_linear_path(g, y0, t_end, dt, post=None)``, serves y' = G y.
  For it the four RK4 stages collapse into one fixed map y -> P y with
  M = dt G,

      P = I + M + M^2/2 + M^3/6 + M^4/24,

  the degree-4 Taylor truncation of exp(M).  Rows are filled a block of
  K = ``CHECK_ROWS`` at a time from the row y before the block: P, P^2,
  ..., P^k with k = min(K, steps), stacked once per run, map y to every
  row of the block, so a block is one product of that stack with y.  It
  is the same method of the same order evaluated in another order, so
  paths agree with ``rk4_path`` up to rounding.  ``post``, when given,
  maps each block row by row before it is checked, as ``rk4_path``'s
  ``post`` maps each state; it is a projection and never ends the path.
  A block with a row that is not finite declines.  A power that
  overflows (a stiff P) holds an inf entry, which makes its column
  non-finite in every later power (an entry of P times inf is inf, or
  NaN for a zero entry), and a row that reads a non-finite entry is not
  finite whatever y (inf times 0 is NaN again).  The first block reads
  every power built, so it declines: a path that ``rk4_path`` keeps
  finite under overflowing powers stays finite, and a diverging path
  stops where ``rk4_path`` stops.
"""

from __future__ import annotations

from functools import partial

import numpy as np

CHECK_ROWS = 64  # rows per block and per divergence check of a fill


class DivergenceError(RuntimeError):
    """Integration produced non-finite values.

    ``last_valid_time`` is the last time with a finite state; ``partial``
    holds (times, states) up to and including that time.
    """

    def __init__(self, last_valid_time, partial):
        super().__init__(
            f"integration diverged after t = {last_valid_time:.6g}")
        self.last_valid_time = last_valid_time
        self.partial = partial


def time_grid(t_end, dt):
    """Times 0, dt, ..., n dt with n = round(t_end / dt) >= 1."""
    if not (0 < dt < np.inf and 0 < t_end < np.inf
            and float(t_end) / float(dt) < np.inf and round(t_end / dt)):
        raise ValueError("need finite dt > 0, t_end > 0 and t_end / dt, "
                         "and round(t_end / dt) >= 1 (no step otherwise)")
    return np.arange(int(round(t_end / dt)) + 1) * dt


def rk4_path(f, y0, t_end, dt, post=None):
    """Integrate y' = f(y) from 0 to t_end with fixed step dt.

    Returns (times, states) with states[i] the state at times[i].  With
    ``post``, each new finite state y is stored as post(y); if post(y) is
    None the path ends at the last stored state.  Overflow on the way to a
    non-finite state raises DivergenceError, not a numpy warning.
    """
    times = time_grid(t_end, dt)
    y = np.array(y0, dtype=float)
    states = np.empty((len(times),) + y.shape)
    states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(times) - 1):
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise DivergenceError(float(times[i]),
                                      partial=(times[:i + 1].copy(),
                                               states[:i + 1].copy()))
            if post is not None:
                y = post(y)
                if y is None:
                    return times[:i + 1], states[:i + 1]
            states[i + 1] = y
    return times, states


def fast_path(fill, f, y0, t_end, dt, post):
    """The grid and return value of ``rk4_path(f, y0, t_end, dt, post)``
    with the path fill(y0, steps, dt) returns, or that call when it
    returns None."""
    times = time_grid(t_end, dt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states = fill(y0, len(times) - 1, dt)
    if states is not None:
        return times[:len(states)], states
    return rk4_path(f, y0, t_end, dt, post)


def rk4_linear_path(g, y0, t_end, dt, post=None):
    """RK4 path of y' = G y from 0 to t_end, each state mapped by post."""
    return fast_path(partial(linear_fill, g, post=post),
                     lambda y: g @ y, y0, t_end, dt, post)


def linear_fill(g, y0, steps, dt, post=None):
    """The RK4 path of y' = G y from y0 over steps steps, filled
    ``CHECK_ROWS`` rows at a time by the stacked powers of P, each block
    mapped by post when given; None at the first block with a row that
    is not finite."""
    d = len(g)
    m = dt * g
    eye = np.eye(d)
    p = eye + m @ (eye + m @ (eye / 2.0 + m @ (eye / 6.0 + m / 24.0)))
    # one power at a time: squaring (P^64 = P^32 P^32) rounds the high
    # powers about 1.5 times as far from the row-by-row path
    powers = np.empty((min(CHECK_ROWS, steps), d, d))
    powers[0] = p
    for j in range(1, len(powers)):
        np.matmul(p, powers[j - 1], out=powers[j])
    stack = powers.reshape(-1, d)
    states = np.empty((steps + 1, d))
    states[0] = y0
    for start in range(1, len(states), CHECK_ROWS):
        rows = states[start:start + CHECK_ROWS]
        np.matmul(stack[:rows.size], states[start - 1], out=rows.reshape(-1))
        if post is not None:
            rows[:] = post(rows)
        if not np.isfinite(rows).all():  # a row or a power it used
            return None
    return states
