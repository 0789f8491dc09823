"""Fixed-step classical RK4 with divergence detection: RK4's one home.

All flows in this package are smooth and non-stiff at desk scale, so a
plain fourth-order scheme with caller-supplied dt is enough; every gkls,
linear and pure-state run reports an oracle against a matrix exponential,
``checks.expm``, which shares nothing with the routes here.  This module
holds the method, and a flow module only its field: the stage tableau
(``RK4_C`` and the 1/6-weighted sum of ``rk4_increment``), the step
increment, and both block recurrences, ``linear_fill`` and
``recurrence_fill``.

Every route returns times on the grid of ``time_grid``, which refuses a
path of more than ``MAX_PATH_VALUES`` values before any allocation, and
states, states[i] the state at times[i].  ``rk4_path(f, y0, t_end, dt,
post=None)`` returns that pair, evaluates the field four times per step,
serves any field and alone raises DivergenceError.  The optional
``post`` map sees every new finite state: its value is stored and
stepped on (a projection such as renormalisation), and a value of None
ends the path at the last stored state (a domain guard).

A fast route is a fill, fill(y0, steps, dt) -> states or None: it
returns its own path, row 0 y0, with fewer than steps + 1 rows only when
a domain guard ends it, or None to decline, and never calls
``rk4_path``.  ``fast_path`` owns the grid, the one np.errstate around a
fill, and the hand-off of a declined run, whole and from y0, to
``rk4_path``, which then decides where it stops and what it raises; it
returns ``(times, states, stopped_early)``, the flag true when the path
is shorter than the grid, and every flow passes that triple on.  Every
fill is built on ``linear_fill``, next to its flow's field (``gkls``
keeps the x columns of its affine field's lift, ``purestate`` divides
each row of z' = M z by its norm, ``mechanics`` adds the S column of
the projectable contact flow with ``linear_stages`` and
``recurrence_fill``).

``linear_fill(g, y0, steps, dt, post=None)``, behind ``rk4_linear_path``,
serves y' = G y.  For it the four RK4 stages collapse into one fixed map
y -> P y with M = dt G,

    P = I + M + M^2/2 + M^3/6 + M^4/24,

the degree-4 Taylor truncation of exp(M).  Rows are filled a block of
K = ``CHECK_ROWS`` at a time from the row y before the block: P, P^2,
..., P^k with k = min(K, steps), stacked once per run, map y to every
row of the block, so a block is one product of that stack with y.  It is
the same method evaluated in another order, so paths agree with
``rk4_path`` up to rounding.  ``post``, when given, maps each block row
by row; it is a projection and never ends the path.  A path with a row
that is not finite declines, every row checked once after the last
block.  A power that overflows (a stiff P) holds an inf entry, and the
row of the first block that reads it is not finite whatever y (inf times
0 is NaN), so the path declines: a path that ``rk4_path`` keeps finite
under overflowing powers stays finite, and a diverging path stops where
``rk4_path`` stops.
"""

from __future__ import annotations

from functools import partial

import numpy as np

CHECK_ROWS = 64  # rows per block of a fill
MAX_PATH_VALUES = 10 ** 7  # rows x state width of a grid: under 1 GB a run
RK4_C = (0.5, 0.5, 1.0)  # stage i + 1 of a step from y is y + (c_i dt) k_i


class DivergenceError(RuntimeError):
    """Integration produced non-finite values; ``partial`` holds (times,
    states) up to and including the last time with a finite state,
    partial[0][-1]."""

    def __init__(self, partial):
        super().__init__(
            f"integration diverged after t = {partial[0][-1]:.6g}")
        self.partial = partial


def time_grid(t_end, dt, width):
    """Times 0, dt, ..., n dt with n = round(t_end / dt) >= 1 for a path
    of width values a row, refused past MAX_PATH_VALUES values."""
    if not (0 < dt < np.inf and 0 < t_end < np.inf
            and float(t_end) / float(dt) < np.inf and round(t_end / dt)):
        raise ValueError("need finite dt > 0, t_end > 0 and t_end / dt, "
                         "and round(t_end / dt) >= 1 (no step otherwise)")
    steps = int(round(t_end / dt))
    if (steps + 1) * width > MAX_PATH_VALUES:
        raise ValueError(f"{steps + 1} rows of {width} values pass the cap of"
                         f" {MAX_PATH_VALUES}: at dt = {dt:.9g}, t_end <= "
                         f"{(MAX_PATH_VALUES // width - 1) * dt:.9g}")
    return np.arange(steps + 1) * dt


def rk4_increment(slope, y, dt):
    """(dt / 6) (k_0 + 2 k_1 + 2 k_2 + k_3), one RK4 step from y: k_i =
    slope(i, y_i) at y_0 = y and y_(i+1) = y + (c_i dt) k_i, c = RK4_C."""
    k = [slope(0, y)]
    for i, c in enumerate(RK4_C, 1):
        k.append(slope(i, y + (c * dt) * k[-1]))
    return (dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])


def rk4_path(f, y0, t_end, dt, post=None):
    """(times, states) of y' = f(y) from 0 to t_end with fixed step dt.
    With ``post``, each new finite state y is stored as post(y), and the
    path ends at the last stored state when that is None.  A state that
    is not finite raises DivergenceError, not a numpy warning."""
    y = np.array(y0, dtype=float)
    times = time_grid(t_end, dt, y.size)
    states = np.empty((len(times),) + y.shape)
    states[0] = y
    slope = lambda _, u: f(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(times) - 1):
            y = y + rk4_increment(slope, y, dt)
            if not np.isfinite(y).all():
                raise DivergenceError((times[:i + 1].copy(),
                                       states[:i + 1].copy()))
            if post is not None:
                y = post(y)
                if y is None:
                    return times[:i + 1], states[:i + 1]
            states[i + 1] = y
    return times, states


def fast_path(fill, f, y0, t_end, dt, post):
    """(times, states, stopped_early): the path fill(y0, steps, dt)
    returns, or ``rk4_path(f, y0, t_end, dt, post)``'s when it returns
    None, and whether that path ends before t_end."""
    times = time_grid(t_end, dt, np.size(y0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states = fill(y0, len(times) - 1, dt)
    if states is None:
        _, states = rk4_path(f, y0, t_end, dt, post)
    return times[:len(states)], states, len(states) < len(times)


def rk4_linear_path(g, y0, t_end, dt, post=None):
    """RK4 path (times, states, stopped_early) of y' = G y from 0 to
    t_end, each state mapped by post, a projection: the flag is false."""
    return fast_path(partial(linear_fill, g, post=post),
                     lambda y: g @ y, y0, t_end, dt, post)


def linear_fill(g, y0, steps, dt, post=None):
    """The RK4 path of y' = G y from y0 over steps steps, filled
    ``CHECK_ROWS`` rows at a time by the stacked powers of P, each block
    mapped by post when given; None when a row is not finite."""
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
    return states if np.isfinite(states).all() else None


def linear_stages(g, zs, dt):
    """The four RK4 stage points of the step of y' = G y from each row of
    zs, stages[i, k] = A_i zs[k] with A_0 = I and A_(i+1) = I + (c_i dt)
    G A_i, in one product with the stacked A_i."""
    d, maps = len(g), [np.eye(len(g))]
    for c in RK4_C:
        maps.append(maps[0] + c * dt * g @ maps[-1])
    return (np.reshape(maps, (-1, d)) @ zs.T).reshape(4, d, -1).swapaxes(1, 2)


def recurrence_fill(c, b, s0):
    """s_0 = s0 and s_(k+1) = c s_k + b_k, filled ``CHECK_ROWS`` rows at a
    time: row m of a block is c^m s + sum_(j<m) c^(m-1-j) b_(k0+j) from
    the row s before it; None when a row is not finite."""
    ramp = np.arange(min(CHECK_ROWS, len(b)))
    # powers[m] = c^m, and row m - 1 of weights holds c^(m - 1 - j) at j < m
    powers = c ** np.append(ramp, len(ramp))
    weights = np.tril(powers[np.abs(ramp[:, None] - ramp)])
    path = np.full(len(b) + 1, s0)
    for start in range(1, len(path), CHECK_ROWS):
        m = min(CHECK_ROWS, len(path) - start)
        path[start:start + m] = powers[1:m + 1] * path[start - 1] \
            + weights[:m, :m] @ b[start - 1:start - 1 + m]
    # a row that is not finite leaves every later one so
    return path if np.isfinite(path).all() else None
