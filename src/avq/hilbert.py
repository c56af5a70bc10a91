"""Dense complex linear algebra for finite-dimensional operator work.

Operators are square complex numpy arrays, states are unit-norm complex
vectors, and a family of n operators on C^d (POVM effects, Kraus
operators) is one (n, d, d) stack.  All tolerances are module-level
constants and can be overridden per call where it matters (eigenvalue
merging, symmetry checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadDistribution, DimMismatch, NotEffect, NotFinite,
                     NotHermitian, NotProjector, NotUnitary)

# Default tolerances.  Symmetry/unitarity/projector checks are absolute on
# matrix entries; eigenvalue merging is relative to the eigenvalue scale.
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
STATE_NORM_TOL = 1e-10
PROJECTOR_TOL = 1e-10
EFFECT_TOL = 1e-10
TRACE_ONE_TOL = 1e-10
PSD_TOL = 1e-10
EIGEN_MERGE_TOL = 1e-8


def require(dev, tol: float, error, what: str):
    """Raise ``error`` with the measured residual unless dev <= tol (NaN fails)."""
    if not dev <= tol:
        raise error(f"{what} = {dev} > {tol}")


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    return m


def as_operator_stack(ops, what: str) -> np.ndarray:
    """Coerce a non-empty family of d x d matrices to one (n, d, d) complex
    stack with finite entries; ``what`` names a member in error messages."""
    try:
        m = np.asarray(ops, dtype=complex)
    except ValueError as exc:  # ragged, so no common shape
        raise DimMismatch(f"each {what} must be a d x d matrix of one d: {exc}") from None
    if m.shape[:1] == (0,):
        raise BadDistribution(f"need at least one {what}")
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise DimMismatch(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotFinite(f"{what} entries must be finite")
    return m


def as_state(v) -> np.ndarray:
    """Coerce to a unit-norm complex vector."""
    s = np.asarray(v, dtype=complex).reshape(-1)
    require(abs(np.linalg.norm(s) - 1.0), STATE_NORM_TOL, ValueError, "state |norm - 1|")
    return s


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def is_hermitian(a, tol: float = HERMITIAN_TOL) -> bool:
    m = as_operator(a)
    return np.max(np.abs(m - dagger(m))) <= tol


def require_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    m = as_operator(a)
    require(np.max(np.abs(m - dagger(m))), tol, NotHermitian, "max |A - A^dag|")
    return m


def is_unitary(a, tol: float = UNITARY_TOL) -> bool:
    m = as_operator(a)
    return np.max(np.abs(dagger(m) @ m - identity(m.shape[0]))) <= tol


def require_unitary(a, tol: float = UNITARY_TOL) -> np.ndarray:
    m = as_operator(a)
    require(np.abs(dagger(m) @ m - identity(len(m))).max(), tol, NotUnitary,
            "max |U^dag U - I|")
    return m


def require_projector(p, tol: float = PROJECTOR_TOL) -> np.ndarray:
    m = as_operator(p)
    require(np.max(np.abs(m - dagger(m))), tol, NotProjector, "max |P - P^dag|")
    require(np.max(np.abs(m @ m - m)), tol, NotProjector, "max |P^2 - P|")
    return m


def is_effect(f, tol: float = EFFECT_TOL) -> bool:
    """0 <= F <= I within tolerance (Hermitian with spectrum in [0, 1])."""
    m = as_operator(f)
    if not is_hermitian(m, tol):
        return False
    w = np.linalg.eigvalsh(m)
    return w[0] >= -tol and w[-1] <= 1.0 + tol


def require_effect(f, tol: float = EFFECT_TOL) -> np.ndarray:
    m = as_operator(f)
    if not is_effect(m, tol):
        raise NotEffect("operator is not an effect (0 <= F <= I)")
    return m


def require_density(sigma, tol: float = TRACE_ONE_TOL) -> np.ndarray:
    """Hermitian, positive semidefinite, trace one."""
    m = require_hermitian(sigma, HERMITIAN_TOL)
    w = np.linalg.eigvalsh(m)
    require(-w[0], PSD_TOL, NotEffect, "density operator's -(least eigenvalue)")
    require(abs(np.trace(m).real - 1.0), tol, NotEffect, "density operator's |trace - 1|")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral resolution as a grouped eigenbasis: the unitary ``basis``
    has its columns in consecutive groups, and group k, of ``sizes[k]``
    columns, spans the eigenspace of ``eigenvalues[k]``."""

    eigenvalues: np.ndarray
    basis: np.ndarray
    sizes: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def blocks(self) -> list:
        ends = np.cumsum(self.sizes).tolist()
        return [self.basis[:, e - n:e] for n, e in zip(self.sizes.tolist(), ends)]

    @cached_property
    def projectors(self) -> tuple:
        return tuple(b @ dagger(b) for b in self.blocks())

    def spectral_sum(self, weights) -> np.ndarray:
        """sum_k weights[k] * projectors[k], computed as V diag(w) V^dag.

        Weights of shape (n, k) give the (n, d, d) stack of the n sums in
        one batched product."""
        w = np.repeat(np.asarray(weights), self.sizes, axis=-1)
        return (self.basis * w[..., None, :]) @ dagger(self.basis)

    def reconstruct(self) -> np.ndarray:
        return self.spectral_sum(self.eigenvalues)

    def resolution_sum(self) -> np.ndarray:
        return self.spectral_sum(np.ones(len(self.sizes)))


def eig_hermitian(h, tol: float = HERMITIAN_TOL,
                  merge_tol: float = EIGEN_MERGE_TOL) -> EigenDecomposition:
    """Eigendecomposition, ascending, with degenerate eigenvalues merged:
    u joins the current level while within ``merge_tol * (1 + |u|)`` of the
    level's first eigenvalue, so no level spans more than the tolerance (nor
    is split into spurious one-dimensional eigenspaces).  A level's value is
    its first (least) eigenvalue, so consecutive values lie more than
    ``merge_tol`` apart."""
    m = require_hermitian(h, tol)
    w, vecs = np.linalg.eigh(m)
    starts = [0]
    for k, u in enumerate(w.tolist()):
        if u - w[starts[-1]] > merge_tol * (1.0 + abs(u)):
            starts.append(k)
    return EigenDecomposition(w[starts], vecs, np.diff(starts + [len(w)]))


def tensor(a, b) -> np.ndarray:
    """Kronecker product, dim = dimA * dimB."""
    return np.kron(as_operator(a), as_operator(b))


def conjugate(u, a, tol: float = UNITARY_TOL) -> np.ndarray:
    """U^dag A U for unitary U; preserves the spectrum of A."""
    uu = require_unitary(u, tol)
    return dagger(uu) @ as_operator(a) @ uu


def trace_product(a, b) -> complex:
    """trace(A B) as an explicit contraction sum_ik A_ik B_ki."""
    ma, mb = as_operator(a), as_operator(b)
    if ma.shape != mb.shape:
        raise DimMismatch(f"shapes {ma.shape} and {mb.shape} differ")
    return complex(np.einsum("ik,ki->", ma, mb))


# Structured-text (JSON-compatible) forms used by the CLI.

def operator_to_dict(a) -> dict:
    m = as_operator(a)
    return {"dim": m.shape[0],
            "re": m.real.ravel().tolist(),
            "im": m.imag.ravel().tolist()}


def operator_from_dict(d: dict) -> np.ndarray:
    n = int(d["dim"])
    m = np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)
    return as_operator(m.reshape(n, n))


def state_to_dict(v) -> dict:
    s = as_state(v)
    return {"dim": s.shape[0], "re": s.real.tolist(), "im": s.imag.tolist()}


def state_from_dict(d: dict) -> np.ndarray:
    s = np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)
    if s.shape[0] != int(d["dim"]):
        raise DimMismatch("state length does not match declared dim")
    return as_state(s)
