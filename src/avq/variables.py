"""Accessible variables as named values + grouped orthonormal eigenbasis.

Functions of variables merge eigenspaces, and states are matched back to
(question, answer) pairs through a variable catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import DimMismatch, DomainError, NotPermutation, NotProjector

# values closer than this are one value; eig_hermitian's levels lie farther apart
VALUE_GAP_TOL = hilbert.EIGEN_MERGE_TOL
MATCH_THRESHOLD = 1e-9  # on 1 - |<a;j|s>|


@dataclass(frozen=True, init=False)
class AccessibleVariable(hilbert.EigenDecomposition):
    """``values[j]`` is taken on the span of the j-th column group of the
    unitary ``basis``: a ``hilbert.EigenDecomposition`` with a name."""

    name: str
    values = property(lambda self: self.eigenvalues)

    def __init__(self, name, values, projectors):
        """One orthogonal projector per value; they must sum to I."""
        projs = hilbert.as_operator_stack(projectors, "projector")
        hilbert.require(hilbert.hermitian_residual(projs), hilbert.RESIDUAL_TOL,
                        NotProjector, "max |P - P^dag|")
        # the eigenvalue j of sum_j j P_j marks the columns of group j
        k = len(projs)
        w, vecs = np.linalg.eigh(np.einsum("j,jab->ab", np.arange(k), projs))
        group = np.rint(w).clip(0, k - 1).astype(int)
        self._set(name, values, vecs, np.bincount(group, minlength=k))
        # P_j = V_j V_j^dag (entry j of the spectral sum of e_j) for every j
        # makes the P_j orthogonal and complete
        hilbert.require(np.abs(projs - self.spectral_sum(np.eye(k))).max(),
                        hilbert.RESIDUAL_TOL, NotProjector, "max |P_j - V_j V_j^dag|")

    def _set(self, name, values, basis, sizes):
        vals = np.asarray(values, dtype=float).reshape(-1)
        sizes = np.asarray(sizes, dtype=int).reshape(-1)
        basis = hilbert.require_unitary(basis)
        vars(self).update(name=name, eigenvalues=vals, basis=basis, sizes=sizes)
        if len(vals) != len(sizes) or sizes.sum() != len(basis) or (sizes < 1).any():
            raise DimMismatch(f"sizes {sizes} do not split dim {len(basis)} "
                              f"among {len(vals)} values")
        ordered = np.sort(vals)
        if not (np.isfinite(ordered).all() and (np.diff(ordered) > VALUE_GAP_TOL).all()):
            raise DomainError(f"values {vals} are not finite and distinct")

    def ranks(self) -> np.ndarray:
        return self.sizes

    @classmethod
    def from_basis(cls, name, values, basis, sizes) -> "AccessibleVariable":
        """values[j] on the j-th group of sizes[j] consecutive columns of basis."""
        v = cls.__new__(cls)
        v._set(name, values, basis, sizes)
        return v

    @classmethod
    def from_eigenbasis(cls, name, values, vectors) -> "AccessibleVariable":
        """One unit eigenvector per value (all eigenspaces one-dimensional)."""
        basis = np.array([hilbert.as_state(v) for v in vectors]).T
        return cls.from_basis(name, values, basis, np.ones(basis.shape[-1]))

    @classmethod
    def from_operator(cls, name, h) -> "AccessibleVariable":
        dec = hilbert.eig_hermitian(h)
        return cls.from_basis(name, dec.eigenvalues, dec.basis, dec.sizes)


@dataclass(frozen=True)
class QuestionAnswer:
    question: str   # variable name
    answer: float


def operator_of(v: AccessibleVariable) -> np.ndarray:
    return v.reconstruct()


def derived_variable(v: AccessibleVariable, t, name=None) -> AccessibleVariable:
    """The variable t(v): image values with fibers' eigenspaces merged."""
    new_values, fibers = [], []
    for j, u in enumerate(v.values):
        img = float(t(u))
        for k, w in enumerate(new_values):
            if abs(img - w) <= VALUE_GAP_TOL:
                fibers[k].append(j)
                break
        else:
            new_values.append(img)
            fibers.append([j])
    blocks = v.blocks()
    basis = np.hstack([blocks[j] for fiber in fibers for j in fiber])
    sizes = [v.sizes[fiber].sum() for fiber in fibers]
    return AccessibleVariable.from_basis(name or f"{v.name}'", new_values,
                                         basis, sizes)


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


def conjugated_variable(v: AccessibleVariable, u, value_action,
                        name=None) -> AccessibleVariable:
    """Transform v by a unitary together with a permutation of its values.

    The result's operator is U^dag (operator of v) U; the value list is
    permuted by ``value_action``, which must map the value set onto itself.
    """
    uu = hilbert.require_unitary(u)
    new_values = np.array([float(value_action(x)) for x in v.values])
    # each image must land back on the value list, bijectively
    hits = np.abs(new_values[:, None] - v.values) <= VALUE_GAP_TOL
    perm = hits.argmax(axis=1)
    if (hits.sum(axis=1) != 1).any() or len(np.unique(perm)) != len(perm):
        raise NotPermutation(f"value action maps {v.values} to {new_values}, "
                             "not onto the value list")
    # entry j: value action(u_j), on U^dag times v's eigenvectors for that value
    blocks = v.blocks()
    basis = hilbert.dagger(uu) @ np.hstack([blocks[j] for j in perm])
    return AccessibleVariable.from_basis(name or f"{v.name}*", new_values,
                                         basis, v.sizes[perm])


def variable_to_dict(v: AccessibleVariable) -> dict:
    return {"name": v.name,
            "values": v.values.tolist(),
            "projectors": [hilbert.operator_to_dict(p) for p in v.projectors]}


def variable_from_dict(d: dict) -> AccessibleVariable:
    name, values, projectors = hilbert.json_fields(
        d, "variable", name=str, values=float, projectors=list)
    return AccessibleVariable(name, values,
                              tuple(hilbert.operator_from_dict(p) for p in projectors))
