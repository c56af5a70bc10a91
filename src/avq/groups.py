"""Finite groups acting on finite variable spaces.

Groups are Cayley tables over element indices; actions are lookup tables
(element, point) -> point.  The defining identities are checked on whole
tables: a Cayley table t is a Latin square (every sorted row and column is
0..n-1) with one two-sided identity e and inverses inv[i] such that
t[i, inv[i]] = t[inv[i], i] = e; an action table a obeys a[e] = id and
a[g, a[h]] = a[t[g, h]] for all g, h at once.  theta is permissible when
every element maps each fibre of theta into one fibre, which is checked
by comparing theta(k x) with theta(k rep(x)), rep(x) being the first
point of x's fibre.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPermissible, NotPermutation, SpaceMismatch


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table.

    ``cayley[i, j]`` is the index of ``g_i * g_j``.  ``labels`` are optional
    element labels; subgroups built by :func:`maximal_permissible_subgroup`
    carry the parent element indices as labels.
    """

    cayley: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        t = np.asarray(self.cayley, dtype=int)
        object.__setattr__(self, "cayley", t)
        n = t.shape[0]
        if t.shape != (n, n):
            raise ValueError("Cayley table must be square")
        full = np.arange(n)
        if not ((np.sort(t, 0) == full[:, None]).all()
                and (np.sort(t, 1) == full).all()):
            raise ValueError("Cayley table is not a Latin square")
        ident = np.flatnonzero((t == full).all(1) & (t == full[:, None]).all(0))
        if len(ident) != 1:
            raise ValueError("Cayley table has no unique identity")
        e = int(ident[0])
        object.__setattr__(self, "_identity", e)
        inv = np.argmax(t == e, 1)  # the one e in each row of a Latin square
        if not (t[inv, full] == e).all():
            raise ValueError("inverses inconsistent with the table")
        object.__setattr__(self, "_inverse", inv)
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must equal group order")

    @property
    def order(self) -> int:
        return self.cayley.shape[0]

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, i: int, j: int) -> int:
        return int(self.cayley[i, j])

    def inverse(self, i: int) -> int:
        return int(self._inverse[i])

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(np.zeros((1, 1), dtype=int))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        idx = np.arange(n)
        return cls((idx[:, None] + idx[None, :]) % n)


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on a finite point list.

    ``table[g, x]`` is the image point index.  The identity and
    compatibility laws act(e, x) = x and act(g, act(h, x)) = act(g h, x)
    are checked on construction, the latter as one (n, n, p) comparison.
    """

    group: FiniteGroup
    space: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "space", tuple(self.space))
        t = np.asarray(self.table, dtype=int)
        object.__setattr__(self, "table", t)
        n, p = self.group.order, len(self.space)
        if t.shape != (n, p):
            raise ValueError(f"action table shape {t.shape} != ({n}, {p})")
        if ((t < 0) | (t >= p)).any():
            raise NotPermutation(f"action table entries must be point indices 0..{p - 1}")
        if not np.array_equal(t[self.group.identity], np.arange(p)):
            raise ValueError("identity element does not act trivially")
        if not (np.take(t, t, axis=1) == np.take(t, self.group.cayley, axis=0)).all():
            raise ValueError("action is not compatible with the product")

    def act(self, g: int, x: int) -> int:
        return int(self.table[g, x])

    @classmethod
    def trivial(cls, space) -> "GroupAction":
        space = tuple(space)
        return cls(FiniteGroup.trivial(), space,
                   np.arange(len(space))[None, :])


def group_from_permutations(perms, space) -> GroupAction:
    """Close a set of permutations of ``space`` into a group action.

    ``perms`` are sequences with perm[x] = image point index.  The returned
    action's group is the generated permutation group (elements ordered by
    discovery, identity first): breadth first, each frontier element e
    followed by g o e for the generators g in order.
    """
    space = tuple(space)
    p = len(space)
    gens = [tuple(int(i) for i in perm) for perm in perms]
    for g in gens:
        if sorted(g) != list(range(p)):
            raise ValueError(f"{g} is not a permutation of {p} points")
    ngen = len(gens)
    gen = np.array(gens, dtype=np.min_scalar_type(max(p - 1, 0))).reshape(ngen, p)
    frontier = np.arange(p, dtype=gen.dtype)[None, :]
    index = {frontier[0].tobytes(): 0}  # element row bytes -> element index
    elems, hits, levels = [frontier], [], [0, 1]
    found = [(0, 0)]  # element j = gen[via] o elems[parent] as (parent, via)
    while len(frontier):
        # (element, generator) order: row i * ngen + k is gen[k] o frontier[i]
        cand = gen[:, frontier].swapaxes(0, 1).reshape(len(frontier) * ngen, p)
        new = []
        for i, row in enumerate(cand):
            key = row.tobytes()
            if key not in index:
                index[key] = len(index)
                new.append(i)
                found.append((levels[-2] + i // ngen, i % ngen))
            hits.append(index[key])
        frontier = cand[new]
        elems.append(frontier)
        levels.append(len(index))
    n = len(index)
    left = np.array(hits, dtype=int).reshape(n, ngen)  # index of gen[k] o elems[j]
    parent, via = np.array(found).T
    # row j of the Cayley table is row parent[j] carried through left[:, via[j]];
    # the parents of one BFS level all sit in the level before it
    cayley = np.empty((n, n), dtype=int)
    cayley[0] = np.arange(n)
    for lo, hi in zip(levels[1:], levels[2:]):
        cayley[lo:hi] = left[cayley[parent[lo:hi]], via[lo:hi, None]]
    elems = np.concatenate(elems)
    return GroupAction(FiniteGroup(cayley), space, elems.astype(int))


@dataclass(frozen=True)
class VariableMap:
    """A surjective map from a point space onto a value space."""

    domain: tuple
    codomain: tuple
    index_map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "codomain", tuple(self.codomain))
        m = np.asarray(self.index_map, dtype=int)
        object.__setattr__(self, "index_map", m)
        if m.shape != (len(self.domain),):
            raise ValueError("map length must equal domain size")
        if set(m.tolist()) != set(range(len(self.codomain))):
            raise ValueError("codomain must equal the image of the map")

    def __call__(self, x: int) -> int:
        return int(self.index_map[x])

    @classmethod
    def from_function(cls, domain, fn) -> "VariableMap":
        domain = tuple(domain)
        values = []
        idx = []
        for x in domain:
            v = fn(x)
            if v not in values:
                values.append(v)
            idx.append(values.index(v))
        return cls(domain, tuple(values), np.array(idx, dtype=int))


def _require_same_space(theta: VariableMap, action: GroupAction):
    if theta.domain != action.space:
        raise SpaceMismatch("variable domain differs from action space")


def _fibre_representatives(theta: VariableMap) -> np.ndarray:
    """rep[v]: the first point x with theta(x) = v."""
    return np.unique(theta.index_map, return_index=True)[1]


def _keeps_fibres(theta: VariableMap, action: GroupAction) -> np.ndarray:
    """Per element k: whether theta(k x) depends on x only through theta(x)."""
    _require_same_space(theta, action)
    m = theta.index_map
    images = m[action.table]  # images[k, x] = theta(k x)
    return (images == images[:, _fibre_representatives(theta)[m]]).all(1)


def check_permissible(theta: VariableMap, action: GroupAction) -> bool:
    """theta(x1) = theta(x2) must imply theta(k x1) = theta(k x2) for all k."""
    return bool(_keeps_fibres(theta, action).all())


def induce_action(theta: VariableMap, action: GroupAction) -> GroupAction:
    """Descend a permissible action through theta to the value space.

    The returned table realizes (g theta)(x) := theta(k x); the homomorphism
    law holds by the whole-table compatibility check in GroupAction.
    """
    if not check_permissible(theta, action):
        raise NotPermissible("variable is not permissible under this action")
    table = theta.index_map[action.table[:, _fibre_representatives(theta)]]
    return GroupAction(action.group, theta.codomain, table)


def maximal_permissible_subgroup(theta: VariableMap, action: GroupAction) -> FiniteGroup:
    """Largest subgroup under which theta descends to the value space.

    Elements h for which theta(h x) depends on x only through theta(x).
    The result's ``labels`` are the element indices in the parent group.
    """
    members = np.flatnonzero(_keeps_fibres(theta, action))
    pos = np.full(action.group.order, -1)  # parent index -> subgroup index
    pos[members] = np.arange(len(members))
    cayley = pos[action.group.cayley[np.ix_(members, members)]]
    if (cayley < 0).any():
        raise AssertionError("permissible elements are not closed")
    return FiniteGroup(cayley, labels=tuple(members.tolist()))


def restrict_action(action: GroupAction, subgroup: FiniteGroup) -> GroupAction:
    """Action of a labeled subgroup (as built above) on the same space."""
    return GroupAction(subgroup, action.space,
                       action.table[np.asarray(subgroup.labels, dtype=int)])


@dataclass(frozen=True)
class OrbitPartition:
    blocks: tuple       # tuples of point indices, each sorted
    transitive: bool


def orbits(action: GroupAction) -> OrbitPartition:
    p = len(action.space)
    seen = np.zeros(p, dtype=bool)
    blocks = []
    for x in range(p):
        if seen[x]:
            continue
        orb = np.unique(action.table[:, x])
        seen[orb] = True
        blocks.append(tuple(int(i) for i in orb))
    return OrbitPartition(tuple(blocks), transitive=(len(blocks) == 1))


def refines(beta: VariableMap, alpha: VariableMap) -> bool:
    """True iff alpha factors through beta (alpha = f(beta))."""
    if beta.domain != alpha.domain:
        raise SpaceMismatch("variable maps must share a domain")
    a = alpha.index_map
    return bool((a == a[_fibre_representatives(beta)[beta.index_map]]).all())


@dataclass(frozen=True)
class InvariantMeasure:
    weights: np.ndarray
    side: str = "both"  # finite case: counting measure is bi-invariant

    def mass(self, points) -> float:
        return float(np.sum(self.weights[list(points)]))


def invariant_measure(action: GroupAction, orbit_mass=None,
                      probability: bool = False) -> InvariantMeasure:
    """Uniform-per-orbit measure; the total mass of each orbit is free.

    ``orbit_mass`` gives one mass per orbit (in block order, default 1 each);
    ``probability`` rescales the whole measure to total mass 1.
    """
    part = orbits(action)
    k = len(part.blocks)
    if orbit_mass is None:
        orbit_mass = [1.0] * k
    if len(orbit_mass) != k:
        raise ValueError(f"expected {k} orbit masses, got {len(orbit_mass)}")
    if any(m < 0 for m in orbit_mass):
        raise ValueError("orbit masses must be nonnegative")
    w = np.zeros(len(action.space))
    for block, mass in zip(part.blocks, orbit_mass):
        w[list(block)] = mass / len(block)
    if probability:
        total = w.sum()
        if total <= 0:
            raise ValueError("cannot normalize a zero measure")
        w = w / total
    return InvariantMeasure(w)


# Structured-text loading (element count, Cayley table, space, action table).

def action_to_dict(action: GroupAction) -> dict:
    return {"order": action.group.order,
            "cayley": action.group.cayley.tolist(),
            "space": list(action.space),
            "action": action.table.tolist()}


def action_from_dict(d: dict) -> GroupAction:
    group = FiniteGroup(np.array(d["cayley"], dtype=int))
    if group.order != int(d["order"]):
        raise ValueError("declared order does not match the Cayley table")
    return GroupAction(group, tuple(d["space"]), np.array(d["action"], dtype=int))
