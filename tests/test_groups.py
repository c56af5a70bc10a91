import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avq import groups
from avq.errors import (BadGroupData, DomainError, NotPermissible, NotPermutation,
                        SpaceMismatch)


def sign_flip_action(points):
    """Sign-flip group {id, -1} acting on a list of signed points."""
    perm = [points.index(-x) for x in points]
    return groups.group_from_permutations([perm], points)


def swap_action():
    """Coordinate swap on {(1,1),(1,-1),(-1,1),(-1,-1)}."""
    space = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    perm = [space.index((b, a)) for a, b in space]
    return groups.group_from_permutations([perm], space)


class TestFiniteGroup:
    def test_cyclic(self):
        g = groups.FiniteGroup.cyclic(5)
        assert g.order == 5
        assert g.identity == 0
        assert g.mul(2, 4) == 1
        assert g.inverse(2) == 3

    def test_rejects_non_latin(self):
        with pytest.raises(ValueError):
            groups.FiniteGroup(np.zeros((2, 2), dtype=int))

    def test_trivial(self):
        g = groups.FiniteGroup.trivial()
        assert g.order == 1 and g.identity == 0


class TestGroupAction:
    def test_identity_law_enforced(self):
        g = groups.FiniteGroup.cyclic(2)
        with pytest.raises(ValueError):
            groups.GroupAction(g, ("x", "y"), np.array([[1, 0], [0, 1]]))

    @pytest.mark.parametrize("table", [[[0, 1], [2, 0]], [[0, 1], [-1, 0]]])
    def test_entry_outside_points_is_not_permutation(self, table):
        g = groups.FiniteGroup.cyclic(2)
        with pytest.raises(NotPermutation, match="point indices"):
            groups.GroupAction(g, ("x", "y"), table)
        assert issubclass(NotPermutation, DomainError)

    def test_from_permutations(self):
        act = sign_flip_action([-1, 1])
        assert act.group.order == 2
        assert act.act(1, 0) == 1

    def test_regular_action_of_s6(self):
        # p = n = 720: the whole-table check would hold two (720, 720, 720) arrays
        group = groups.group_from_permutations(symmetric_generators(6), range(6)).group
        tracemalloc.start()
        try:
            act = groups.GroupAction(group, range(720), group.cayley)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert np.array_equal(act.table, group.cayley)
        bad = group.cayley.copy()
        bad[5, [3, 7]] = bad[5, [7, 3]]
        with pytest.raises(BadGroupData, match="not compatible"):
            groups.GroupAction(group, range(720), bad)


class TestPermissible:
    def test_identity_map(self):
        act = sign_flip_action([-2, -1, 1, 2])
        theta = groups.VariableMap.from_function(act.space, lambda x: x)
        assert groups.check_permissible(theta, act)

    def test_constant_map(self):
        act = sign_flip_action([-2, -1, 1, 2])
        theta = groups.VariableMap.from_function(act.space, lambda x: 0)
        assert groups.check_permissible(theta, act)

    def test_four_point_swap_fails(self):
        act = swap_action()
        theta = groups.VariableMap.from_function(act.space, lambda p: p[0])
        assert not groups.check_permissible(theta, act)

    def test_space_mismatch(self):
        act = sign_flip_action([-1, 1])
        theta = groups.VariableMap.from_function((1, 2, 3), lambda x: x)
        with pytest.raises(SpaceMismatch):
            groups.check_permissible(theta, act)


class TestInduceAction:
    def test_identity_theta(self):
        act = sign_flip_action([-2, -1, 1, 2])
        theta = groups.VariableMap.from_function(act.space, lambda x: x)
        ind = groups.induce_action(theta, act)
        assert np.array_equal(ind.table, act.table)

    def test_parity_under_shift(self):
        space = (1, 2, 3, 4, 5, 6)
        shift = [space.index(x % 6 + 1) for x in space]
        shift2 = [shift[shift[k]] for k in range(6)]  # shift by 2 generates
        act = groups.group_from_permutations([shift2], space)
        theta = groups.VariableMap.from_function(space, lambda x: x % 2)
        ind = groups.induce_action(theta, act)
        for g in range(ind.group.order):
            assert np.array_equal(ind.table[g], np.arange(2))

    def test_absolute_value(self):
        act = sign_flip_action([-2, -1, 1, 2])
        theta = groups.VariableMap.from_function(act.space, abs)
        ind = groups.induce_action(theta, act)
        assert ind.space == (2, 1)
        for g in range(ind.group.order):
            assert np.array_equal(ind.table[g], np.arange(2))

    def test_not_permissible(self):
        act = swap_action()
        theta = groups.VariableMap.from_function(act.space, lambda p: p[0])
        with pytest.raises(NotPermissible):
            groups.induce_action(theta, act)

    def test_homomorphism_law(self):
        act = sign_flip_action([-2, -1, 1, 2])
        theta = groups.VariableMap.from_function(act.space, abs)
        ind = groups.induce_action(theta, act)
        for g in range(ind.group.order):
            for h in range(ind.group.order):
                gh = ind.group.mul(g, h)
                assert np.array_equal(ind.table[g][ind.table[h]], ind.table[gh])


class TestMaximalPermissibleSubgroup:
    def test_whole_group_when_permissible(self):
        act = sign_flip_action([-2, -1, 1, 2])
        theta = groups.VariableMap.from_function(act.space, abs)
        sub = groups.maximal_permissible_subgroup(theta, act)
        assert sub.order == act.group.order

    def test_excludes_swap(self):
        act = swap_action()
        theta = groups.VariableMap.from_function(act.space, lambda p: p[0])
        sub = groups.maximal_permissible_subgroup(theta, act)
        assert sub.order == 1
        assert sub.labels == (act.group.identity,)

    def test_trivial_group(self):
        act = groups.GroupAction.trivial(("x", "y"))
        theta = groups.VariableMap.from_function(act.space, lambda x: x)
        sub = groups.maximal_permissible_subgroup(theta, act)
        assert sub.order == 1

    def test_result_is_permissible(self):
        act = swap_action()
        theta = groups.VariableMap.from_function(act.space, lambda p: p[0])
        sub = groups.maximal_permissible_subgroup(theta, act)
        restricted = groups.restrict_action(act, sub)
        assert groups.check_permissible(theta, restricted)


class TestOrbits:
    def test_transitive_two_points(self):
        part = groups.orbits(sign_flip_action([-1, 1]))
        assert part.transitive
        assert part.blocks == ((0, 1),)

    def test_plus_minus_c_structure(self):
        act = sign_flip_action([-2, -1, 1, 2])
        part = groups.orbits(act)
        assert not part.transitive
        orbit_values = {tuple(sorted(act.space[i] for i in b))
                        for b in part.blocks}
        assert orbit_values == {(-1, 1), (-2, 2)}

    def test_trivial_group_singletons(self):
        part = groups.orbits(groups.GroupAction.trivial((10, 20, 30)))
        assert part.blocks == ((0,), (1,), (2,))


class TestRefines:
    def test_reflexive(self):
        space = (1, 2, 3, 4)
        beta = groups.VariableMap.from_function(space, lambda x: x % 2)
        assert groups.refines(beta, beta)

    def test_identity_refines_all(self):
        space = (1, 2, 3, 4)
        beta = groups.VariableMap.from_function(space, lambda x: x)
        alpha = groups.VariableMap.from_function(space, lambda x: x % 2)
        assert groups.refines(beta, alpha)

    def test_parity_does_not_refine_value(self):
        space = (1, 2, 3, 4)
        beta = groups.VariableMap.from_function(space, lambda x: x % 2)
        alpha = groups.VariableMap.from_function(space, lambda x: x)
        assert not groups.refines(beta, alpha)

    def test_fibers(self):
        # refines(beta, alpha) means every beta fiber sits inside one alpha fiber
        space = tuple(range(8))
        beta = groups.VariableMap.from_function(space, lambda x: x // 2)
        alpha = groups.VariableMap.from_function(space, lambda x: x // 4)
        assert groups.refines(beta, alpha)
        for b in range(len(beta.codomain)):
            fiber = [x for x in range(8) if beta(x) == b]
            assert len({alpha(x) for x in fiber}) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=4, max_size=8),
       st.lists(st.integers(0, 2), min_size=4, max_size=8))
def test_refines_transitive_property(m1, m2):
    n = min(len(m1), len(m2))
    space = tuple(range(n))
    beta = groups.VariableMap.from_function(space, lambda x: m1[x])
    gamma = groups.VariableMap.from_function(space, lambda x: m2[m1[x] % len(m2)])
    # gamma is a function of beta by construction, so refines must hold,
    # and composing with the identity keeps it transitive
    assert groups.refines(beta, gamma)
    ident = groups.VariableMap.from_function(space, lambda x: x)
    assert groups.refines(ident, beta) and groups.refines(ident, gamma)


class TestInvariantMeasure:
    def test_transitive_uniform(self):
        act = sign_flip_action([-1, 1])
        mu = groups.invariant_measure(act, probability=True)
        assert np.allclose(mu.weights, [0.5, 0.5])

    def test_two_orbit_weights(self):
        # one swap orbit of size 2, one 4-cycle orbit of size 4
        act = groups.group_from_permutations([[1, 0, 3, 4, 5, 2]],
                                             tuple(range(6)))
        mu = groups.invariant_measure(act)
        assert np.allclose(mu.weights, [0.5, 0.5, 0.25, 0.25, 0.25, 0.25])

    def test_invariance_exhaustive(self):
        act = sign_flip_action([-3, -2, -1, 1, 2, 3])
        mu = groups.invariant_measure(act, orbit_mass=[1.0, 2.0, 0.5])
        p = len(act.space)
        for g in range(act.group.order):
            for mask in range(1, 2 ** p):
                subset = [x for x in range(p) if mask & (1 << x)]
                image = [act.act(g, x) for x in subset]
                assert abs(mu.mass(subset) - mu.mass(image)) < 1e-12

    def test_bad_mass_count(self):
        act = sign_flip_action([-1, 1])
        with pytest.raises(ValueError):
            groups.invariant_measure(act, orbit_mass=[1.0, 2.0])

    @pytest.mark.parametrize("mass", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0]])
    @pytest.mark.parametrize("probability", [False, True])
    def test_non_finite_mass(self, mass, probability):
        act = groups.GroupAction.trivial(("x", "y"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadGroupData, match="nonnegative"):
                groups.invariant_measure(act, mass, probability=probability)


class TestSerialization:
    def test_roundtrip(self):
        act = sign_flip_action([-2, -1, 1, 2])
        d = groups.action_to_dict(act)
        back = groups.action_from_dict(d)
        assert back.space == act.space
        assert np.array_equal(back.table, act.table)
        assert np.array_equal(back.group.cayley, act.group.cayley)


# Reference: the element-by-element closure and pairwise fibre loops that the
# whole-table code replaced, kept to pin its tables exactly.

def reference_closure(perms, p):
    """Tuple BFS (identity first, frontier by frontier, g o e per generator)."""
    ident = tuple(range(p))
    gens = [tuple(perm) for perm in perms]
    elems, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = tuple(g[e[x]] for x in range(p))
                if h not in seen:
                    seen.add(h)
                    elems.append(h)
                    nxt.append(h)
        frontier = nxt
    index = {e: k for k, e in enumerate(elems)}
    cayley = [[index[tuple(map(a.__getitem__, b))] for b in elems] for a in elems]
    return {"order": len(elems), "cayley": cayley, "space": list(range(p)),
            "action": [list(e) for e in elems]}


def reference_permissible_members(m, table):
    p = len(m)
    return [h for h in range(len(table))
            if all(m[table[h][x1]] == m[table[h][x2]]
                   for x1 in range(p) for x2 in range(x1 + 1, p)
                   if m[x1] == m[x2])]


def assert_matches_reference(gens, p, maps=()):
    act = groups.group_from_permutations(gens, range(p))
    ref = reference_closure(gens, p)
    assert groups.action_to_dict(act) == ref
    assert act.group.cayley.dtype == int and act.table.dtype == int
    assert_generates(act.group)
    e = act.group.identity
    assert e == 0
    for i in range(act.group.order):
        j = act.group.inverse(i)
        assert ref["cayley"][i][j] == ref["cayley"][j][i] == e
    for m in maps:
        theta = groups.VariableMap(tuple(range(p)), tuple(range(max(m) + 1)), m)
        members = reference_permissible_members(m, ref["action"])
        assert groups.check_permissible(theta, act) == (len(members) == ref["order"])
        sub = groups.maximal_permissible_subgroup(theta, act)
        assert sub.labels == tuple(members)
        pos = {h: k for k, h in enumerate(members)}
        assert sub.cayley.tolist() == [[pos[ref["cayley"][a][b]] for b in members]
                                       for a in members]
        restricted = groups.restrict_action(act, sub)
        assert restricted.table.tolist() == [ref["action"][h] for h in members]
        if len(members) == ref["order"]:
            rep = [m.index(v) for v in range(max(m) + 1)]
            induced = groups.induce_action(theta, act)
            assert induced.table.tolist() == [[m[row[x]] for x in rep]
                                              for row in ref["action"]]


def assert_generates(group):
    """_generators reaches every element by right multiplication, in <= log2(n)."""
    gens = group._generators.tolist()
    assert len(gens) <= math.log2(group.order)
    reached, frontier = {group.identity}, [group.identity]
    while frontier:
        frontier = [group.mul(y, s) for y in frontier for s in gens]
        frontier = [z for z in dict.fromkeys(frontier) if z not in reached]
        reached.update(frontier)
    assert reached == set(range(group.order))


def symmetric_generators(n):
    return [[*range(1, n), 0], [1, 0, *range(2, n)]]


class TestMatchesReference:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_symmetric(self, n):
        maps = [[0] * n, list(range(n)), [0, 0] + list(range(1, n - 1)),
                [x % 2 for x in range(n)]]
        assert_matches_reference(symmetric_generators(n), n, maps)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_cyclic(self, d):
        maps = [[x % k for x in range(d)] for k in (1, 2, 3) if k <= d]
        assert_matches_reference([[*range(1, d), 0]], d, maps)
        assert np.array_equal(
            groups.group_from_permutations([[*range(1, d), 0]], range(d)).table,
            [[(x + k) % d for x in range(d)] for k in range(d)])

    def test_symmetric_on_ordered_pairs(self):
        pairs = [(x, y) for x in range(5) for y in range(5) if x != y]
        index = {pair: k for k, pair in enumerate(pairs)}
        gens = [[index[g[x], g[y]] for x, y in pairs]
                for g in symmetric_generators(5)]
        assert_matches_reference(gens, len(pairs),
                                 [[x for x, _ in pairs], [y for _, y in pairs]])

    def test_no_generators_and_empty_space(self):
        assert_matches_reference([], 3)
        act = groups.group_from_permutations([[]], ())
        assert act.group.cayley.tolist() == [[0]] and act.table.shape == (1, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.permutations(range(p)), max_size=3),
    st.lists(st.integers(0, 2), min_size=p, max_size=p))))
def test_closure_matches_reference_property(case):
    p, gens, raw = case
    m = np.unique(raw, return_inverse=True)[1].tolist()
    assert_matches_reference(gens, p, [m])


def reference_compatible(group, table):
    """The whole-table check: a[e] = id and a[g, a[h, x]] = a[gh, x] for all g, h, x."""
    t = np.asarray(table)
    return (np.array_equal(t[group.identity], np.arange(t.shape[1]))
            and (np.take(t, t, axis=1) == np.take(t, group.cayley, axis=0)).all())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.permutations(range(p)), max_size=3),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, p - 1))))
def test_generator_compatibility_matches_whole_table_property(case):
    p, gens, g, x, value = case
    act = groups.group_from_permutations(gens, range(p))
    assert reference_compatible(act.group, act.table)
    bad = act.table.copy()
    bad[g % act.group.order, x % p] = value
    try:
        groups.GroupAction(act.group, act.space, bad)
        accepted = True
    except BadGroupData:
        accepted = False
    assert accepted == reference_compatible(act.group, bad)


def coset_twist(group, j):
    """A row order alpha with alpha(g k) = alpha(g) k for every k in the subgroup K
    generated by all generators but the j-th, and alpha = id on K.

    An action table taken in this row order still obeys the compatibility law
    for every h in K, so only the j-th generator's check can reject it.
    """
    others = [s for i, s in enumerate(group._generators.tolist()) if i != j]
    cosets, seen = [], set()
    for g in [group.identity, *range(group.order)]:
        if g in seen:
            continue
        coset = [g]  # g K, closed by right multiplication
        seen.add(g)
        for y in coset:
            for s in others:
                z = group.mul(y, s)
                if z not in seen:
                    seen.add(z)
                    coset.append(z)
        cosets.append(coset)
    # K stays put; every other coset g K goes to the next one, g to its last element
    alpha = list(range(group.order))
    for src, dst in zip(cosets[1:], cosets[2:] + cosets[1:2]):
        r = src[0]
        for x in src:
            alpha[x] = group.mul(dst[-1], group.mul(group.inverse(r), x))
    return alpha


@pytest.mark.parametrize("gens, p", [
    (symmetric_generators(3), 3), (symmetric_generators(4), 4),
    (symmetric_generators(5), 5), ([[3, 0, 1, 2], [0, 3, 2, 1]], 4),
    ([[1, 2, 0, 3, 4], [0, 1, 2, 4, 3]], 5), ([[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]], 6)])
def test_every_generator_is_checked(gens, p):
    act = groups.group_from_permutations(gens, range(p))
    group = act.group
    assert len(group._generators) >= 2
    rejected = 0
    for j in range(len(group._generators)):
        alpha = coset_twist(group, j)
        assert sorted(alpha) == list(range(group.order))
        twisted = act.table[alpha]
        try:
            groups.GroupAction(group, act.space, twisted)
            accepted = True
        except BadGroupData:
            accepted = False
        assert accepted == reference_compatible(group, twisted)
        rejected += not accepted
    assert rejected  # some twists are automorphisms, which the law accepts


def reduced_latin_squares(n):
    """Every n x n Latin square with first row and column 0..n-1 (a loop with identity 0)."""
    t = np.zeros((n, n), dtype=int)
    t[0] = t[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield t.copy()
            return
        i, j = cells[k]
        for v in set(range(n)) - set(t[i, :j].tolist()) - set(t[:i, j].tolist()):
            t[i, j] = v
            yield from fill(k + 1)
        t[i, j] = 0

    return fill(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_light_associativity_matches_whole_table(n):
    # every loop of order <= 6, up to the labels of rows and columns; loops of
    # order 5 are the smallest non-associative ones, and some of order 6 need
    # two generators
    verdicts = []
    for t in reduced_latin_squares(n):
        whole = bool((t[t] == np.take(t, t, axis=1)).all())  # (xy)z = x(yz)
        try:
            groups.FiniteGroup(t)
            accepted = True
        except BadGroupData:
            accepted = False
        assert accepted == whole
        verdicts.append(accepted)
    assert len(verdicts) == [1, 1, 1, 4, 56, 9408][n - 1]
    assert sum(verdicts) == [1, 1, 1, 4, 6, 80][n - 1]


class TestIntegralTables:
    @pytest.mark.parametrize("build", [
        lambda entry: groups.FiniteGroup([[0, 1], [1, entry]]),
        lambda entry: groups.GroupAction(Z2, ("x", "y"), [[0, 1], [1, entry]]),
        lambda entry: groups.VariableMap(("x", "y"), ("u", "v"), [entry, 1]),
    ])
    @pytest.mark.parametrize("entry", [0.2, 1.9, np.nan, np.inf, 1e20, "0", None, 1j])
    def test_non_integral_entry(self, build, entry):
        with pytest.raises(BadGroupData, match="entries must be integers"):
            build(entry)

    def test_integral_floats_are_accepted(self):
        assert groups.FiniteGroup([[0.0, 1.0], [1.0, 0.0]]).cayley.dtype == int
        act = groups.GroupAction(Z2, ("x", "y"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert act.table.dtype == int and act.table.tolist() == [[0, 1], [1, 0]]
        theta = groups.VariableMap(("x", "y"), ("u", "v"), [1.0, 0.0])
        assert theta.index_map.dtype == int and theta.index_map.tolist() == [1, 0]

    def test_loaded_tables_are_not_truncated(self):
        d = groups.action_to_dict(sign_flip_action([-1, 1]))
        d["action"][1][0] = 1.5
        with pytest.raises(BadGroupData, match="entries must be integers"):
            groups.action_from_dict(d)


class TestWholeTableRejections:
    def test_non_latin_column(self):
        with pytest.raises(ValueError, match="Latin"):
            groups.FiniteGroup(np.array([[0, 1, 2], [1, 2, 0], [1, 0, 2]]))

    def test_inconsistent_inverse(self):
        # a Latin square with identity 0 in which 2 * 3 = 0 but 3 * 2 = 1
        loop = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                         [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])
        with pytest.raises(ValueError, match="inverses"):
            groups.FiniteGroup(loop)

    def test_compatibility_breaking_action(self):
        g = groups.FiniteGroup.cyclic(2)
        with pytest.raises(ValueError, match="compatible"):
            groups.GroupAction(g, ("x", "y", "z"), np.array([[0, 1, 2], [1, 2, 0]]))


Z2 = groups.FiniteGroup.cyclic(2)
ONE_POINT = groups.GroupAction.trivial(("x",))


@pytest.mark.parametrize("build, message", [
    (lambda: groups.FiniteGroup(np.zeros((2, 3), dtype=int)), "must be square"),
    (lambda: groups.FiniteGroup(np.zeros((2, 2), dtype=int)), "not a Latin square"),
    (lambda: groups.FiniteGroup(np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])),
     "no unique identity"),
    (lambda: groups.FiniteGroup(np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                                          [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])),
     "inverses inconsistent"),
    (lambda: groups.FiniteGroup(np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                                          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])),
     "not associative"),
    (lambda: groups.FiniteGroup(Z2.cayley, labels=("e",)), "labels length"),
    (lambda: groups.GroupAction(Z2, ("x", "y"), [[0, 1]]), "action table shape"),
    (lambda: groups.GroupAction(Z2, ("x", "y"), [[1, 0], [0, 1]]), "act trivially"),
    (lambda: groups.GroupAction(Z2, ("x", "y", "z"), [[0, 1, 2], [1, 2, 0]]),
     "not compatible"),
    (lambda: groups.group_from_permutations([[0, 0]], ("x", "y")), "not a permutation"),
    (lambda: groups.VariableMap(("x", "y"), ("u",), [0]), "map length"),
    (lambda: groups.VariableMap(("x", "y"), ("u", "v"), [0, 0]), "image of the map"),
    (lambda: groups.invariant_measure(ONE_POINT, [1.0, 1.0]), "expected 1 orbit masses"),
    (lambda: groups.invariant_measure(ONE_POINT, [-1.0]), "nonnegative"),
    (lambda: groups.FiniteGroup([[0, 1], [1, 0.5]]), "entries must be integers"),
    (lambda: groups.FiniteGroup([[0, 1], [1]]), "rectangular array"),
    (lambda: groups.invariant_measure(ONE_POINT, [0.0], probability=True),
     "zero measure"),
    (lambda: groups.action_from_dict({"order": 3, "cayley": [[0]], "space": ["x"],
                                      "action": [[0]]}), "declared order"),
])
def test_every_table_check_raises_a_domain_error(build, message):
    with pytest.raises(BadGroupData, match=message) as info:
        build()
    assert isinstance(info.value, DomainError) and isinstance(info.value, ValueError)
