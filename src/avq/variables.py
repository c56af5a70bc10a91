"""Accessible variables as named values + grouped orthonormal eigenbasis.

Functions of variables merge eigenspaces and conjugation permutes values;
both regroup a checked basis, so only their new values are checked.  States
are matched back to (question, answer) pairs through a variable catalog.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import (DimMismatch, DomainError, NotInteger, NotPermutation, NotProjector,
                     require_real)

# values closer than this are one value; eig_hermitian's levels lie farther apart
VALUE_GAP_TOL = hilbert.EIGEN_MERGE_TOL
MATCH_THRESHOLD = 1e-9  # on 1 - |<a;j|s>|


class _Projectors(Sequence):
    """The V_k V_k^dag of column groups V_k, each built when read."""

    def __init__(self, blocks):
        self._blocks = blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(*k.indices(len(self))))
        b = self._blocks[k]
        return b @ hilbert.dagger(b)


@dataclass(frozen=True, init=False)
class AccessibleVariable:
    """``values[j]`` is taken on the span of the j-th group, of ``sizes[j]``
    consecutive columns, of the unitary ``basis``; the eigenprojectors are
    built when read and never stored."""

    name: str
    values: np.ndarray
    basis: np.ndarray
    sizes: np.ndarray

    def __init__(self, name, values, projectors):
        """One orthogonal projector per value; they must sum to I."""
        projs = hilbert.as_operator_stack(projectors, "projector")
        hilbert.require(hilbert.hermitian_residual(projs), hilbert.RESIDUAL_TOL,
                        NotProjector, "max |P - P^dag|")
        # the eigenvalue j of sum_j j P_j marks the columns of group j
        k = len(projs)
        w, vecs = np.linalg.eigh(np.einsum("j,jab->ab", np.arange(k), projs))
        group = np.rint(w).clip(0, k - 1).astype(int)
        vars(self).update(vars(_on_basis(name, values, vecs,
                                         np.bincount(group, minlength=k))))
        # P_j = V_j V_j^dag (entry j of the spectral sum of e_j) for every j
        # makes the P_j orthogonal and complete
        hilbert.require(np.abs(projs - self.spectral_sum(np.eye(k))).max(),
                        hilbert.RESIDUAL_TOL, NotProjector, "max |P_j - V_j V_j^dag|")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def blocks(self) -> list:
        ends = np.cumsum(self.sizes).tolist()
        return [self.basis[:, e - n:e] for n, e in zip(self.sizes.tolist(), ends)]

    @property
    def projectors(self) -> Sequence:
        return _Projectors(self.blocks())

    def spectral_sum(self, weights) -> np.ndarray:
        """sum_k weights[k] * projectors[k], computed as V diag(w) V^dag.

        Weights of shape (n, k) give the (n, d, d) stack of the n sums in
        one batched product."""
        w = np.repeat(np.asarray(weights), self.sizes, axis=-1)
        return (self.basis * w[..., None, :]) @ hilbert.dagger(self.basis)

    @classmethod
    def from_basis(cls, name, values, basis, sizes) -> "AccessibleVariable":
        """values[j] on the j-th group of sizes[j] consecutive columns of basis."""
        return _on_basis(name, values, hilbert.require_unitary(basis), sizes)

    @classmethod
    def from_eigenbasis(cls, name, values, vectors) -> "AccessibleVariable":
        """One unit eigenvector per value (all eigenspaces one-dimensional)."""
        basis = np.array([hilbert.as_state(v) for v in vectors]).T
        return cls.from_basis(name, values, basis, np.ones(basis.shape[-1]))

    @classmethod
    def from_operator(cls, name, h) -> "AccessibleVariable":
        values, basis, sizes = hilbert.eig_hermitian(h)
        return hilbert._unchecked(cls, name=name, values=values, basis=basis, sizes=sizes)


def _on_basis(name, values, basis, sizes) -> AccessibleVariable:
    """A variable on a basis avq has checked or built: only the sizes (whole
    numbers splitting the dimension among the values) and the values are checked."""
    vals = hilbert._as_numbers(values, float, "values").reshape(-1)
    # checked as floats, so that no size outside int64 reaches the int cast
    given, sizes = sizes, hilbert._as_numbers(sizes, float, "sizes").reshape(-1)
    if (sizes != np.floor(sizes)).any():
        raise NotInteger(f"sizes must be whole numbers, got {given!r}")
    if len(vals) != len(sizes) or sizes.sum() != len(basis) or (sizes < 1).any():
        raise DimMismatch(f"sizes {given} do not split dim {len(basis)} "
                          f"among {len(vals)} values")
    ordered = np.sort(vals)
    if not (np.isfinite(ordered).all() and (np.diff(ordered) > VALUE_GAP_TOL).all()):
        raise DomainError(f"values {vals} are not finite and distinct")
    return hilbert._unchecked(AccessibleVariable, name=name, values=vals, basis=basis,
                              sizes=sizes.astype(int))


@dataclass(frozen=True)
class QuestionAnswer:
    question: str   # variable name
    answer: float


def _columns(v: AccessibleVariable, order) -> np.ndarray:
    """The indices of the basis columns of v's groups, in ``order``."""
    sizes = v.sizes[order]
    starts = (np.cumsum(v.sizes) - v.sizes)[order]
    return np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


def derived_variable(v: AccessibleVariable, t) -> AccessibleVariable:
    """The variable t(v), named v.name + "'": fibers' eigenspaces merged.

    In value order, an image joins the fiber of the first earlier fiber
    value within VALUE_GAP_TOL of it, or else starts a fiber with its value.
    """
    images = np.array([require_real(t(u), "an image under t") for u in v.values])
    k = len(images)
    # near[j, i]: image i comes before image j and lies within the gap of it
    near = np.abs(images[:, None] - images) <= VALUE_GAP_TOL
    near &= np.tri(k, k, -1, dtype=bool)
    # starts[j]: image j starts a fiber.  Each round settles at least the
    # first open image, and all of them unless near images form a chain.
    starts, open_ = np.zeros(k, dtype=bool), np.ones(k, dtype=bool)
    while open_.any():
        starts |= open_ & ~(near & (starts | open_)).any(axis=1)
        open_ &= ~starts & ~(near & starts).any(axis=1)
    head = ((near | np.eye(k, dtype=bool)) & starts).argmax(axis=1)
    order = np.argsort(head, kind="stable")
    sizes = np.bincount(np.cumsum(starts)[head] - 1, weights=v.sizes).astype(int)
    # the basis is v's, regrouped; the values are images under the caller's t
    basis = np.take(v.basis, _columns(v, order), axis=1)
    return _on_basis(f"{v.name}'", images[starts], basis, sizes)


def is_maximal(v: AccessibleVariable) -> bool:
    """Maximal iff every eigenspace is one-dimensional."""
    return bool(np.all(v.sizes == 1))


def state_to_question(s, catalog) -> list:
    """All (variable, value) pairs whose rank-1 eigenvector matches s.

    Matching is up to a phase: |<a;j|s>| > 1 - 1e-9.  All hits are
    reported; uniqueness is a property of well-formed catalogs, not an
    enforced constraint.
    """
    sv = hilbert.as_state(s)
    hits = []
    for var in catalog:
        if var.dim != sv.shape[0]:
            raise DimMismatch(f"variable {var.name} has dim {var.dim}, "
                              f"state has dim {sv.shape[0]}")
        sharp = var.sizes == 1  # only sharp (rank-1) answers match a pure state
        columns = (np.cumsum(var.sizes) - 1)[sharp]
        overlaps = np.abs(np.conj(sv) @ var.basis[:, columns])
        hits += [QuestionAnswer(var.name, float(u))
                 for u, o in zip(var.values[sharp], overlaps)
                 if o > 1.0 - MATCH_THRESHOLD]
    return hits


def conjugated_variable(v: AccessibleVariable, u, value_action) -> AccessibleVariable:
    """Transform v, as v.name + "*", by a unitary and a permutation of its values.

    The result's operator is U^dag (operator of v) U; the value list is
    permuted by ``value_action``, which must map the value set onto itself.
    """
    uu = hilbert.require_unitary(u)
    new_values = np.array([require_real(value_action(x), "an image under the value action")
                           for x in v.values])
    # each image must land back on the value list, bijectively
    hits = np.abs(new_values[:, None] - v.values) <= VALUE_GAP_TOL
    perm = hits.argmax(axis=1)
    if (hits.sum(axis=1) != 1).any() or len(np.unique(perm)) != len(perm):
        raise NotPermutation(f"value action maps {v.values} to {new_values}, "
                             "not onto the value list")
    # entry j: value action(u_j), on U^dag times v's eigenvectors for that value
    basis = hilbert.dagger(uu) @ np.take(v.basis, _columns(v, perm), axis=1)
    return _on_basis(f"{v.name}*", new_values, basis, v.sizes[perm])


def variable_from_dict(d: dict) -> AccessibleVariable:
    name, values, projectors = hilbert.json_fields(
        d, "variable", name=str, values=float, projectors=list)
    return AccessibleVariable(name, values,
                              tuple(hilbert.operator_from_dict(p) for p in projectors))
