import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avq import groups
from avq.errors import DomainError, NotPermissible, NotPermutation, SpaceMismatch


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
