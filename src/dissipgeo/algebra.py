"""Operator algebra for n-level systems.

Builds orthonormal traceless Hermitian bases (generalized Gell-Mann
matrices scaled to Tr(tau_j tau_k) = delta_jk, so the dual basis equals
the basis itself), the coherence-vector chart xi = I/n + x^j tau_j on
trace-one Hermitian matrices, and, on demand only, the antisymmetric
structure tensor c of a basis whose matrices are checked Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10


class BasisCorruptionError(RuntimeError):
    """A basis matrix handed to ``structure_constants`` is not Hermitian."""


def matvec(m, x):
    """m @ x over broadcasting leading axes; rows round as 2-D @ 1-D."""
    return (m @ x[..., None])[..., 0]


def shaped(name, value, *shapes):
    """value, returned by the callback called name, as a float array;
    ValueError unless its shape is one of shapes, those its caller
    accepts: the one shape check of the callbacks of a ``ScalarField``
    and of a ``ContactLagrangianSystem``."""
    value = np.asarray(value, dtype=float)
    if value.shape not in shapes:
        raise ValueError(f"{name} returned shape {value.shape}, not {shapes}")
    return value


def vecdot(x, y):
    """x @ y over broadcasting leading axes; rows round as 1-D @ 1-D."""
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


def is_hermitian(a):
    """Whether a, or every matrix of a stack (..., n, n), is Hermitian."""
    a = np.asarray(a)
    return a.ndim >= 2 and a.shape[-2] == a.shape[-1] and \
        float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)))) < HERMITICITY_TOL


@dataclass(frozen=True)
class SuBasis:
    """Orthonormal traceless Hermitian basis of an n-level system.

    tau has shape (n**2 - 1, n, n); its structure tensor comes from
    ``structure_constants(tau)``.  Immutable after construction; safe to
    share between threads.
    """

    n: int
    tau: np.ndarray

    @property
    def size(self):
        return self.n * self.n - 1


def _gell_mann_stack(n):
    """Symmetric pairs, antisymmetric pairs, then diagonals, each
    lexicographic in (row, col); all with Tr(tau_j tau_k) = delta_jk."""
    mats = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = inv_sqrt2
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j * inv_sqrt2
            m[k, j] = 1j * inv_sqrt2
            mats.append(m)
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -float(l)
        mats.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1.0)))
    return np.stack(mats)


def structure_constants(tau):
    """Structure tensor c of an orthonormal traceless basis, given as a
    raw (N, n, n) stack of basis matrices, with the lower index first:

        c[l, j, k] = i Tr([tau_j, tau_k] tau_l)   (antisymmetric in j, k)

    Raises BasisCorruptionError unless every basis matrix is Hermitian:
    c alone misses tau_0 + 0.5i I, which moves it by rounding only.
    """
    tau = np.asarray(tau)
    if not is_hermitian(tau):
        raise BasisCorruptionError("a basis matrix is not Hermitian")
    # T[j, k, l] = Tr(tau_j tau_k tau_l)
    t = np.einsum("jab,kbc,lca->jkl", tau, tau, tau)
    c_raw = 1j * (t - t.transpose(1, 0, 2))
    # reorder to [l, j, k]
    return np.ascontiguousarray(c_raw.real.transpose(2, 0, 1))


def build_su_basis(n):
    """Orthonormal traceless Hermitian basis of su(n).  n = 2 gives the
    Pauli matrices over sqrt(2)."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need integer n >= 2, got {n!r}")
    return SuBasis(n=int(n), tau=_gell_mann_stack(int(n)))


def to_coherence_vector(a, basis):
    """Coherence vector x^j = Tr(a tau_j) of a trace-one Hermitian matrix,
    or of each matrix of a stack (..., n, n), each row with the bits of its
    one-matrix call; the first trace off 1 by more than TRACE_TOL raises
    ValueError."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != (basis.n, basis.n):
        raise ValueError(f"shape {a.shape} does not match n={basis.n}")
    traces = np.trace(a, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > TRACE_TOL
    if off.any():
        raise ValueError(
            f"expected unit trace, got {complex(traces[off][0])!r}")
    return np.einsum("jab,...ba->...j", basis.tau, a).real


def from_coherence_vector(x, basis):
    """Reconstruct xi = I/n + x^j tau_j; leading axes of x are batch axes.
    x^j tau_j is one real sum in j order over the float view of tau: a
    complex einsum's rounding without its complex multiply-adds."""
    x = np.asarray(x, dtype=float)
    n = basis.n
    if x.shape[-1:] != (basis.size,):
        raise ValueError(f"coherence vector length {x.shape} != {basis.size}")
    xi = np.empty(x.shape[:-1] + (n * n,), dtype=complex)
    np.einsum("...j,jk->...k", x, basis.tau.reshape(-1, n * n).view(float),
              out=xi.view(float))
    xi.real[..., ::n + 1] += 1.0 / n
    return xi.reshape(x.shape[:-1] + (n, n))
