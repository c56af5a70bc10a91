"""Finite groups acting on finite variable spaces.

Groups are Cayley tables over element indices; actions are lookup tables
(element, point) -> point.  A Cayley table t must be a Latin square (every
sorted row and column is 0..n-1) with one two-sided identity e, inverses
inv[i] such that t[i, inv[i]] = t[inv[i], i] = e, and an associative
product.  The laws over a pair of elements are checked only with one of
them in a generating set S: the elements s with (x s) y = x (s y) for all
x, y are closed under the product, so checking s in S suffices (Light's
associativity test), and likewise an action table a with a[e] = id obeys
a[g, a[h]] = a[t[g, h]] for all g, h once it does for all g and h in S.
theta is permissible when every element maps each fibre of theta into one
fibre, which is checked by comparing theta(k x) with theta(k rep(x)),
rep(x) being the first point of x's fibre.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import BadGroupData, NotPermissible, NotPermutation, SpaceMismatch


def _index_table(table, what: str) -> np.ndarray:
    """``table`` as an int array; float entries must be integral and fit in int64."""
    try:
        a = np.asarray(table)
    except ValueError as exc:  # ragged nested lists
        raise BadGroupData(f"{what} must be a rectangular array") from exc
    # |x| < 2**63 is False for NaN and inf
    if a.dtype.kind == "f" and (abs(a) < 2.0**63).all() and (a == np.round(a)).all():
        return a.astype(int)
    if a.dtype.kind not in "iu" and a.size:
        raise BadGroupData(f"{what} entries must be integers")
    return a.astype(int, copy=False)


def _generating_set(t: np.ndarray, e: int) -> np.ndarray:
    """Greedy generators: each is the first element outside the subgroup so far.

    The subgroup is closed breadth first by right multiplication; each new
    generator at least doubles it (Lagrange), so there are at most log2(n).
    """
    inside = [False] * len(t)
    inside[e] = True
    members, gens, cols = [e], [], []
    for x in range(len(t)):
        if inside[x]:
            continue
        gens.append(x)
        cols.append(t[:, x].tolist())
        # old members need only the new generator; new ones need all of them
        frontier, steps = members[:], cols[-1:]
        while frontier:
            new = []
            for col in steps:
                for y in frontier:
                    z = col[y]
                    if not inside[z]:
                        inside[z] = True
                        new.append(z)
            members += new
            frontier, steps = new, cols
    return np.array(gens, dtype=int)


def _derived(t: np.ndarray, e: int) -> dict:
    """A FiniteGroup's private fields: identity e of the Latin square t,
    inverses (the one e in each row) and generating set."""
    return {"_identity": e, "_inverse": np.argmax(t == e, 1),
            "_generators": _generating_set(t, e)}


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table.

    ``cayley[i, j]`` is the index of ``g_i * g_j``.  ``labels`` are optional
    element labels; subgroups built by :func:`maximal_permissible_subgroup`
    carry the parent element indices as labels.  Associativity is checked by
    Light's test, t[t[x, s], y] = t[x, t[s, y]] for all x, y and each s in
    a greedy generating set S of at most log2(n) elements.
    """

    cayley: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        t = _index_table(self.cayley, "Cayley table")
        object.__setattr__(self, "cayley", t)
        n = t.shape[0]
        if t.shape != (n, n):
            raise BadGroupData("Cayley table must be square")
        full = np.arange(n)
        if not ((np.sort(t, 0) == full[:, None]).all()
                and (np.sort(t, 1) == full).all()):
            raise BadGroupData("Cayley table is not a Latin square")
        ident = np.flatnonzero((t == full).all(1) & (t == full[:, None]).all(0))
        if len(ident) != 1:
            raise BadGroupData("Cayley table has no unique identity")
        vars(self).update(_derived(t, int(ident[0])))
        if not (t[self._inverse, full] == self._identity).all():
            raise BadGroupData("inverses inconsistent with the table")
        # Light's test: (x s) y = x (s y) for all x, y; one (n, n) table per s
        # is faster than one (n, |S|, n) comparison from n ~ 100 up
        for s in self._generators.tolist():
            if not (t[t[:, s]] == np.take(t, t[s], axis=1)).all():
                raise BadGroupData("Cayley table is not associative")
        if self.labels is not None and len(self.labels) != n:
            raise BadGroupData("labels length must equal group order")

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
    are checked on construction, the latter for h in the group's generating
    set S only, as one (n, |S|, p) comparison: the h that satisfy it for
    every g are closed under the product, so this covers the whole group.
    """

    group: FiniteGroup
    space: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "space", tuple(self.space))
        t = _index_table(self.table, "action table")
        object.__setattr__(self, "table", t)
        n, p = self.group.order, len(self.space)
        if t.shape != (n, p):
            raise BadGroupData(f"action table shape {t.shape} != ({n}, {p})")
        if ((t < 0) | (t >= p)).any():
            raise NotPermutation(f"action table entries must be point indices 0..{p - 1}")
        if not np.array_equal(t[self.group.identity], np.arange(p)):
            raise BadGroupData("identity element does not act trivially")
        gens = self.group._generators
        if not (np.take(t, t[gens], axis=1) == t[self.group.cayley[:, gens]]).all():
            raise BadGroupData("action is not compatible with the product")

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
            raise BadGroupData(f"{g} is not a permutation of {p} points")
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
    group = hilbert._unchecked(FiniteGroup, cayley=cayley, labels=None,
                               **_derived(cayley, 0))
    return hilbert._unchecked(GroupAction, group=group, space=space,
                              table=elems.astype(int))


@dataclass(frozen=True)
class VariableMap:
    """A surjective map from a point space onto a value space."""

    domain: tuple
    codomain: tuple
    index_map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "codomain", tuple(self.codomain))
        m = _index_table(self.index_map, "map")
        object.__setattr__(self, "index_map", m)
        if m.shape != (len(self.domain),):
            raise BadGroupData("map length must equal domain size")
        if set(m.tolist()) != set(range(len(self.codomain))):
            raise BadGroupData("codomain must equal the image of the map")

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

    The returned table realizes (g theta)(x) := theta(k x), which obeys the
    action laws because the action does and theta keeps its fibres.
    """
    if not check_permissible(theta, action):
        raise NotPermissible("variable is not permissible under this action")
    table = theta.index_map[action.table[:, _fibre_representatives(theta)]]
    return hilbert._unchecked(GroupAction, group=action.group, space=theta.codomain,
                              table=table)


def maximal_permissible_subgroup(theta: VariableMap, action: GroupAction) -> FiniteGroup:
    """Largest subgroup under which theta descends to the value space.

    Elements h for which theta(h x) depends on x only through theta(x), a
    set closed under the product.  The result's ``labels`` are the element
    indices in the parent group.
    """
    members = np.flatnonzero(_keeps_fibres(theta, action))
    pos = np.full(action.group.order, -1)  # parent index -> subgroup index
    pos[members] = np.arange(len(members))
    cayley = pos[action.group.cayley[np.ix_(members, members)]]
    return hilbert._unchecked(FiniteGroup, cayley=cayley, labels=tuple(members.tolist()),
                              **_derived(cayley, int(pos[action.group.identity])))


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
        raise BadGroupData(f"expected {k} orbit masses, got {len(orbit_mass)}")
    if not all(0 <= m < np.inf for m in orbit_mass):  # False for NaN
        raise BadGroupData("orbit masses must be finite and nonnegative")
    w = np.zeros(len(action.space))
    for block, mass in zip(part.blocks, orbit_mass):
        w[list(block)] = mass / len(block)
    if probability:
        total = w.sum()
        if total <= 0:
            raise BadGroupData("cannot normalize a zero measure")
        w = w / total
    return InvariantMeasure(w)


# Structured-text loading (element count, Cayley table, space, action table).

def action_to_dict(action: GroupAction) -> dict:
    return {"order": action.group.order,
            "cayley": action.group.cayley.tolist(),
            "space": list(action.space),
            "action": action.table.tolist()}


def action_from_dict(d: dict) -> GroupAction:
    order, cayley, space, table = hilbert.json_fields(
        d, "action", order=int, cayley=list, space=list, action=list)
    group = FiniteGroup(cayley)
    if group.order != order:
        raise BadGroupData("declared order does not match the Cayley table")
    return GroupAction(group, tuple(space), table)
