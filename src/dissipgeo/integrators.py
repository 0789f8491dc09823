"""Fixed-step classical RK4 with divergence detection.

All flows in this package are smooth and non-stiff at desk scale, so a
plain fourth-order scheme with caller-supplied dt is enough; oracle
comparisons against matrix exponentials are done in the test suite.

Every route returns ``(times, states)`` on the grid of ``time_grid``,
states[i] the state at times[i].  ``rk4_path(f, y0, t_end, dt, post=None)``
evaluates the field four times per step, serves any field and alone
raises DivergenceError.  The optional ``post`` map sees every new finite
state: its value is stored and stepped on (a projection such as
renormalisation), and a value of None ends the path at the last stored
state (a domain guard), so a path shorter than the grid means the
integration stopped early.

A fast route is a fill, fill(states, dt) -> rows kept: it writes
states[1:] from states[0] and keeps every row, fewer when a domain guard
ends the path, or 0 to decline, and never calls ``rk4_path``.
``fast_path`` owns the grid, the states array, the one np.errstate
around a fill, and the hand-off of a declined run, whole and from y0, to
``rk4_path``, which then decides where it stops and what it raises.  The
fills here (``mechanics`` adds the closed-form contact fill):

- ``affine_fill``, behind ``rk4_affine_path(a, b, y0, t_end, dt)``,
  serves affine fields y' = a y + b, the linear field [[a, b], [0, 0]]
  on (y, 1) (Van Loan 1978).  For it the four RK4 stages collapse into
  one fixed map (y, 1) -> P^ (y, 1) with M^ = dt [[a, b], [0, 0]],

      P^ = I + M^ + M^^2/2 + M^^3/6 + M^^4/24 = [[P, q], [0, 1]],

  the degree-4 Taylor truncation of exp(M^).  Rows are filled a block of
  K = ``_CHECK_ROWS`` at a time from the row y before the block: the top
  d rows of P^, P^^2, ..., P^^K, stacked once per run, hold the maps
  y -> P^j y + sum_(i<j) P^i q, so a block is one product of that stack
  with (y, 1).  It is the same method of the same order evaluated in
  another order, so paths agree with ``rk4_path`` up to rounding.  A
  block with a row that is not finite declines.  A power that overflows
  (a stiff P) turns the (0, ..., 0, 1) row of the next power into NaN,
  since inf times its zero entries is NaN, and every later power and
  every row of the block reading it inherits a non-finite entry, so it
  too declines: a path that stays finite under overflowing powers stays
  finite, and a diverging path stops where ``rk4_path`` stops.
- ``_krylov_fill``, behind ``rk4_sphere_path(m, b, z0, t_end, dt,
  renormalize=False)``, serves the pure-state flow
  z' = ``sphere_field(m, b, z)`` = (M - e(z)) z with the scalar
  e(z) = z^T B z / z^T z, B symmetric.  With A = dt M every RK4 stage
  point of a step from z is a polynomial of degree <= 3 in A applied to
  z, so a step needs the Krylov terms W_j = A^j z (j <= 4) and B W_j
  (j <= 3), one product of a (9d x d) stack built once per run with z.
  The Gram entries W_j . W_l and W_j . B W_l (j, l <= 3), one 4 x 8
  product, give every stage's e_i as a ratio of quadratic forms in its 4
  coefficients, computed in Python floats, and the step is
  z + sum_j delta_j W_j with delta = (K1 + 2 K2 + 2 K3 + K4) / 6 in W
  coefficients.  In this increment form no coefficient reads 1 + O(dt),
  which would round away the low bits of the increment of z at every
  step; the norm drifts as on ``rk4_path``.  Z is homogeneous of degree
  1, so a step commutes with scaling and renormalisation is z / |z|
  after it.  It is the same method, so paths agree with ``rk4_path`` on
  the field up to rounding.  A non-finite Krylov term (the stack at
  |dt M| >~ 1e77, a row on a diverging path) or a zero stage point
  declines.  Beyond RK4's stability bound (dt |M| > 2.8), where a path
  is unstable on either route, the Gram forms square the cancellation
  among the Krylov terms, and a step's rounding grows to about 1e-13
  relative.
"""

from __future__ import annotations

from functools import partial

import numpy as np

_CHECK_ROWS = 64  # rows per block and per divergence check of the steppers


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
    with the rows fill(states, dt) keeps, or that call when it keeps 0."""
    times = time_grid(t_end, dt)
    states = np.empty((len(times), len(y0)))
    states[0] = y0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = fill(states, dt)
    if rows:
        return times[:rows], states[:rows]
    return rk4_path(f, y0, t_end, dt, post)


def rk4_affine_path(a, b, y0, t_end, dt):
    """RK4 path of y' = a y + b from 0 to t_end."""
    return fast_path(partial(affine_fill, a, b), lambda y: a @ y + b,
                     y0, t_end, dt, None)


def affine_fill(a, b, states, dt):
    """Fill C-contiguous states ``_CHECK_ROWS`` rows at a time by the
    stacked powers of P^; 0 at the first block with a non-finite row."""
    d = len(a)
    m = np.zeros((d + 1, d + 1))
    m[:d, :d] = a
    m[:d, d] = b
    m *= dt
    eye = np.eye(d + 1)
    p = eye + m @ (eye + m @ (eye / 2.0 + m @ (eye / 6.0 + m / 24.0)))
    y1 = np.ones(d + 1)  # (y, 1) of the row a block starts from
    # one power at a time: squaring (P^64 = P^32 P^32) rounds the high
    # powers about 1.5 times as far from the row-by-row path
    powers = np.empty((_CHECK_ROWS, d + 1, d + 1))
    powers[0] = p
    for j in range(1, _CHECK_ROWS):
        np.matmul(p, powers[j - 1], out=powers[j])
    stack = powers[:, :d].reshape(-1, d + 1)
    for start in range(1, len(states), _CHECK_ROWS):
        rows = states[start:start + _CHECK_ROWS]
        y1[:d] = states[start - 1]
        np.matmul(stack[:rows.size], y1, out=rows.reshape(-1))
        if not np.isfinite(rows).all():  # a row or a power it used
            return 0
    return len(states)


def sphere_field(m, b, z):
    """Z = M z - (z^T B z / z^T z) z for a real generator M and a
    symmetric B (the chart form of purestate's Z = X_a + Y0_b)."""
    return m @ z - (z @ (b @ z) / (z @ z)) * z


def rk4_sphere_path(m, b, z0, t_end, dt, renormalize=False):
    """RK4 path of z' = sphere_field(m, b, z), post z / |z| if renormalize."""
    return fast_path(partial(_krylov_fill, m, b, renormalize),
                     partial(sphere_field, m, b), z0, t_end, dt,
                     post=(lambda z: z / np.sqrt(z @ z)) if renormalize
                     else None)


def _krylov_fill(m, b, renormalize, states, h):
    """Fill states with RK4 steps in Krylov form (A = h M); 0 when the
    stack, a Gram entry or a row is not finite or a stage point zero."""
    d = len(m)
    powers = [np.eye(d)]
    for _ in range(4):
        powers.append(h * m @ powers[-1])
    # rows B W_0..B W_3, W_0..W_4: the Gram rows W_0..W_3 pair with the
    # first 8, and the step combines the last 5
    stack = np.concatenate([b @ p for p in powers[:4]] + powers)
    if not np.isfinite(stack).all():
        return 0
    w = np.empty((9, d))
    flat, left, right, terms = w.reshape(-1), w[4:8], w[:8].T, w[4:]
    try:
        for start in range(1, len(states), _CHECK_ROWS):
            block = states[start - 1:start + _CHECK_ROWS]
            for z, y in zip(block, block[1:]):
                np.matmul(stack, z, out=flat)
                # H_jl = W_j . B W_l and G_jl = W_j . W_l, both symmetric
                ((h00, h01, h02, h03, g00, g01, g02, g03),
                 (_, h11, h12, h13, _, g11, g12, g13),
                 (_, _, h22, h23, _, _, g22, g23),
                 (_, _, _, h33, _, _, _, g33)) = (left @ right).tolist()
                # stage i sits at sum_j x_j W_j; its k_i, times h, is
                # K_i = shift(x) - he_i x with he_i = h x^T H x / x^T G x
                he1 = h * h00 / g00
                k10, k11 = -he1, 1.0
                x0, x1 = 1.0 + 0.5 * k10, 0.5 * k11
                he2 = h * (x0 * (x0 * h00 + 2.0 * x1 * h01)
                           + x1 * x1 * h11) \
                    / (x0 * (x0 * g00 + 2.0 * x1 * g01) + x1 * x1 * g11)
                k20, k21, k22 = -he2 * x0, x0 - he2 * x1, x1
                x0, x1, x2 = 1.0 + 0.5 * k20, 0.5 * k21, 0.5 * k22
                he3 = h * (x0 * (x0 * h00 + 2.0 * (x1 * h01 + x2 * h02))
                           + x1 * (x1 * h11 + 2.0 * x2 * h12)
                           + x2 * x2 * h22) \
                    / (x0 * (x0 * g00 + 2.0 * (x1 * g01 + x2 * g02))
                       + x1 * (x1 * g11 + 2.0 * x2 * g12) + x2 * x2 * g22)
                k30, k31, k32, k33 = (-he3 * x0, x0 - he3 * x1,
                                      x1 - he3 * x2, x2)
                x0, x1, x2, x3 = 1.0 + k30, k31, k32, k33
                he4 = h * (x0 * (x0 * h00 + 2.0 * (x1 * h01 + x2 * h02
                                                   + x3 * h03))
                           + x1 * (x1 * h11 + 2.0 * (x2 * h12 + x3 * h13))
                           + x2 * (x2 * h22 + 2.0 * x3 * h23)
                           + x3 * x3 * h33) \
                    / (x0 * (x0 * g00 + 2.0 * (x1 * g01 + x2 * g02
                                               + x3 * g03))
                       + x1 * (x1 * g11 + 2.0 * (x2 * g12 + x3 * g13))
                       + x2 * (x2 * g22 + 2.0 * x3 * g23) + x3 * x3 * g33)
                k40, k41, k42, k43, k44 = (-he4 * x0, x0 - he4 * x1,
                                           x1 - he4 * x2, x2 - he4 * x3, x3)
                # increment form: W_0 = z enters only as z + delta_0 z
                delta = [(k10 + 2.0 * (k20 + k30) + k40) / 6.0,
                         (k11 + 2.0 * (k21 + k31) + k41) / 6.0,
                         (2.0 * (k22 + k32) + k42) / 6.0,
                         (2.0 * k33 + k43) / 6.0,
                         k44 / 6.0]
                np.add(z, np.dot(delta, terms), out=y)
                if renormalize:
                    y /= np.sqrt(y @ y)
            if not np.isfinite(block).all():
                return 0
    except ZeroDivisionError:  # a stage point at z = 0 (or underflowed)
        return 0
    return len(states)
