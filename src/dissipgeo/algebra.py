"""Operator algebra for n-level systems.

Builds orthonormal traceless Hermitian bases (generalized Gell-Mann
matrices scaled to Tr(tau_j tau_k) = delta_jk, so the dual basis equals
the basis itself), the coherence-vector chart xi = I/n + x^j tau_j on
trace-one Hermitian matrices, and, on demand only, the antisymmetric and
symmetric structure tensors of a basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-12


class InvalidDimensionError(ValueError):
    """Basis requested for a dimension below 2."""


class TraceMismatchError(ValueError):
    """A matrix expected to have unit trace does not; carries ``.trace``."""

    def __init__(self, trace):
        super().__init__(f"expected unit trace, got {trace!r}")
        self.trace = trace


class BasisCorruptionError(RuntimeError):
    """Structure constants came out non-real beyond tolerance."""


def is_hermitian(a):
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and \
        float(np.max(np.abs(a - a.conj().T))) < HERMITICITY_TOL


@dataclass(frozen=True)
class SuBasis:
    """Orthonormal traceless Hermitian basis of an n-level system.

    tau has shape (n**2 - 1, n, n); its structure tensors come from
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
    """Structure tensors (c, d) of an orthonormal traceless basis, given
    as a raw (N, n, n) stack of basis matrices, with the lower index
    first:

        c[l, j, k] = i Tr([tau_j, tau_k] tau_l)   (antisymmetric in j, k)
        d[l, j, k] = Tr({tau_j, tau_k} tau_l)     (symmetric in j, k)

    Raises BasisCorruptionError if the imaginary residue of either tensor
    exceeds 1e-12.
    """
    tau = np.asarray(tau)
    # T[j, k, l] = Tr(tau_j tau_k tau_l)
    t = np.einsum("jab,kbc,lca->jkl", tau, tau, tau)
    c_raw = 1j * (t - t.transpose(1, 0, 2))
    d_raw = t + t.transpose(1, 0, 2)
    residue = max(float(np.max(np.abs(c_raw.imag))),
                  float(np.max(np.abs(d_raw.imag))))
    if residue > IMAG_RESIDUE_TOL:
        raise BasisCorruptionError(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL:.0e}")
    # reorder to [l, j, k]
    return (np.ascontiguousarray(c_raw.real.transpose(2, 0, 1)),
            np.ascontiguousarray(d_raw.real.transpose(2, 0, 1)))


def build_su_basis(n):
    """Orthonormal traceless Hermitian basis of su(n).  n = 2 gives the
    Pauli matrices over sqrt(2)."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidDimensionError(f"need integer n >= 2, got {n!r}")
    return SuBasis(n=int(n), tau=_gell_mann_stack(int(n)))


def to_coherence_vector(a, basis):
    """Coherence vector x^j = Tr(a tau_j) of a trace-one Hermitian matrix."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (basis.n, basis.n):
        raise ValueError(f"shape {a.shape} does not match n={basis.n}")
    trace = complex(np.trace(a))
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceMismatchError(trace)
    return np.einsum("jab,ba->j", basis.tau, a).real


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
