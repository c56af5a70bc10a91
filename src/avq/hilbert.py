"""Dense complex linear algebra for finite-dimensional operator work.

Operators are square complex numpy arrays, states are unit-norm complex
vectors, and a family of n operators on C^d (POVM effects, Kraus
operators) is one (n, d, d) stack.  ``eig_hermitian`` returns a spectral
resolution as its merged values and a grouped eigenbasis, the fields of an
``avq.variables.AccessibleVariable``.  Each check reads its tolerance from
a module-level constant: one bound on the max-abs residual of an operator
identity, and one for merging eigenvalues.
"""

from __future__ import annotations

import numpy as np

from .errors import (BadDistribution, BadShape, DimMismatch, DomainError, NotEffect,
                     NotFinite, NotHermitian, NotUnitary)

# Each check of an operator identity (or a norm, trace or spectrum) bounds
# its max-abs residual; eigenvalue merging is relative to the value's scale.
RESIDUAL_TOL = 1e-10
EIGEN_MERGE_TOL = 1e-8


def require(dev, tol: float, error, what: str):
    """Raise ``error`` with the measured residual unless dev <= tol (NaN
    fails); the error carries the residual as ``residual`` (a float, NaN
    kept) and the bound as ``tol``."""
    if not dev <= tol:
        exc = error(f"{what} = {dev} > {tol}")
        exc.residual = float(dev)
        exc.tol = tol
        raise exc


def _as_numbers(a, dtype, what: str) -> np.ndarray:
    """``a`` as an array of ``dtype``, int, float or complex: an entry that
    does not convert raises NotFinite, and a ragged nesting DimMismatch."""
    try:
        return np.asarray(a, dtype=dtype)
    except (TypeError, ValueError) as exc:
        reason = str(exc)
    try:
        np.asarray(a)
    except ValueError:  # ragged, so no common shape
        raise DimMismatch(f"{what} have no common shape") from None
    raise NotFinite(f"{what} must convert to {dtype.__name__}: {reason}")


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix of dim >= 1 with finite entries."""
    m = _as_numbers(a, complex, "operator entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimMismatch(f"expected a square matrix of dim >= 1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotFinite("operator entries must be finite")
    return m


def as_operator_stack(ops, what: str) -> np.ndarray:
    """Coerce a non-empty family of d x d matrices, d >= 1, to one (n, d, d)
    complex stack with finite entries; ``what`` names a member in error
    messages."""
    m = _as_numbers(ops, complex, f"{what} entries")
    if m.shape[:1] == (0,):
        raise BadDistribution(f"need at least one {what}")
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.size == 0:
        raise DimMismatch(f"expected a stack of square matrices of dim >= 1, "
                          f"got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotFinite(f"{what} entries must be finite")
    return m


def as_state(v) -> np.ndarray:
    """Coerce to a unit-norm complex vector; another shape raises DimMismatch."""
    s = _as_numbers(v, complex, "state entries")
    if s.ndim != 1:
        raise DimMismatch(f"a state is a vector, got shape {s.shape}")
    require(abs(np.linalg.norm(s) - 1.0), RESIDUAL_TOL, DomainError, "state |norm - 1|")
    return s


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def hermitian_residual(a) -> float:
    """max |A - A^dag| over the entries of a matrix, or of a whole stack."""
    m = np.asarray(a)
    return float(np.abs(m - dagger(m)).max())


def effect_residual(f) -> float:
    """How far the spectrum of a Hermitian F, or of every member of a stack,
    reaches beyond [0, 1]: max(-least eigenvalue, greatest eigenvalue - 1)."""
    w = np.linalg.eigvalsh(f)
    return float(max(-w.min(), w.max() - 1.0))


def completeness_residual(stack) -> float:
    """max |sum_j F_j - I| over the entries, for an (n, d, d) stack of
    effects F_j."""
    m = np.asarray(stack)
    return float(np.abs(m.sum(0) - identity(m.shape[-1])).max())


def require_hermitian(a) -> np.ndarray:
    m = as_operator(a)
    require(hermitian_residual(m), RESIDUAL_TOL, NotHermitian, "max |A - A^dag|")
    return m


def require_unitary(a) -> np.ndarray:
    m = as_operator(a)
    require(np.abs(dagger(m) @ m - identity(len(m))).max(), RESIDUAL_TOL, NotUnitary,
            "max |U^dag U - I|")
    return m


def require_effect(f) -> np.ndarray:
    """0 <= F <= I within tolerance (Hermitian with spectrum in [0, 1])."""
    m = as_operator(f)
    require(hermitian_residual(m), RESIDUAL_TOL, NotEffect, "max |F - F^dag|")
    require(effect_residual(m), RESIDUAL_TOL, NotEffect, "spectral excess beyond [0, 1]")
    return m


def require_density(sigma) -> np.ndarray:
    """Hermitian, positive semidefinite, trace one."""
    m = require_hermitian(sigma)
    w = np.linalg.eigvalsh(m)
    require(-w[0], RESIDUAL_TOL, NotEffect, "density operator's -(least eigenvalue)")
    require(abs(np.trace(m).real - 1.0), RESIDUAL_TOL, NotEffect,
            "density operator's |trace - 1|")
    return m


def require_probabilities(w, what: str) -> np.ndarray:
    """``w`` as a 1-D float array, checked to be a probability vector: every
    weight finite (NotFinite), none negative and |sum - 1| <= RESIDUAL_TOL
    (BadDistribution, the sum's error carrying its residual)."""
    w = _as_numbers(w, float, what).reshape(-1)
    if not np.isfinite(w).all():
        raise NotFinite(f"{what} {w} are not finite")
    if np.any(w < 0):
        raise BadDistribution(f"{what} must be nonnegative")
    require(abs(w.sum() - 1.0), RESIDUAL_TOL, BadDistribution, f"|sum of {what} - 1|")
    return w


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with the given fields,
    built without running its checks: for a value avq built from parts it
    has already checked (see ``avq.errors``)."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def eig_hermitian(h) -> tuple:
    """(values, basis, sizes): ascending eigenvalues, degenerate ones merged,
    and an eigenbasis whose k-th group of sizes[k] columns spans the
    eigenspace of values[k].  An eigenvalue u joins the current level while
    within ``EIGEN_MERGE_TOL * (1 + |u|)`` of the level's first eigenvalue,
    so no level spans more than the tolerance (nor is split into spurious
    one-dimensional eigenspaces).  A level's value is its first (least)
    eigenvalue, so consecutive values lie more than ``EIGEN_MERGE_TOL`` apart."""
    m = require_hermitian(h)
    w, vecs = np.linalg.eigh(m)
    starts = [0]
    for k, u in enumerate(w.tolist()):
        if u - w[starts[-1]] > EIGEN_MERGE_TOL * (1.0 + abs(u)):
            starts.append(k)
    return w[starts], vecs, np.diff(starts + [len(w)])


# Structured-text (JSON-compatible) forms used by the CLI.

_KINDS = {int: "an integer", str: "a string", list: "an array",
          float: "a rectangular array of numbers"}


def json_fields(d, what: str, **kinds) -> tuple:
    """The named fields of the JSON object ``d``, in the order named.

    Each kind is ``int``, ``str``, ``list`` or ``float``, the last an array
    of numbers nested to any depth and returned as a float array.  A ``d``
    that is not an object, or a field of another kind, raises BadShape
    naming ``what``; a missing field is a KeyError, as for any lookup.
    """
    if not isinstance(d, dict):
        raise BadShape(f"{what} must be a JSON object, not {type(d).__name__}")
    fields = []
    for key, kind in kinds.items():
        value = d[key]
        fits = isinstance(value, list if kind is float else kind) \
            and not isinstance(value, bool)
        if fits and kind is float:
            try:
                value = np.array(value, dtype=float)
            except (TypeError, ValueError, OverflowError):
                fits = False
        if not fits:
            raise BadShape(f"{what} field {key!r} must be {_KINDS[kind]}")
        fields.append(value)
    return tuple(fields)


def operator_to_dict(a) -> dict:
    m = as_operator(a)
    return {"dim": m.shape[0],
            "re": m.real.ravel().tolist(),
            "im": m.imag.ravel().tolist()}


def operator_from_dict(d: dict) -> np.ndarray:
    n, re, im = json_fields(d, "operator", dim=int, re=float, im=float)
    if n < 1 or re.size != n * n or im.shape != re.shape:
        raise DimMismatch(f"operator of dim {n} needs dim >= 1 and dim^2 entries "
                          "each in re and im")
    return as_operator((re + 1j * im).reshape(n, n))
