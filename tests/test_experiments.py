import csv
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avq import born, experiments, inference


class TestPlaneDirection:
    def test_cardinal_angles(self):
        assert np.allclose(experiments.plane_direction(0.0), [0, 0, 1])
        assert np.allclose(experiments.plane_direction(np.pi / 2), [1, 0, 0],
                           atol=1e-12)


class TestChshSimulate:
    def test_all_zero_angles(self):
        cfg = experiments.ChshConfig(0.0, 0.0, 0.0, 0.0, 20000, 5)
        run = experiments.chsh_simulate(cfg)
        for est, count in run.correlations.values():
            assert count > 0
            assert est == pytest.approx(-1.0)
        assert run.s_statistic == pytest.approx(-2.0)

    def test_single_trial(self):
        cfg = experiments.ChshConfig(0.0, np.pi / 2, np.pi / 4,
                                     3 * np.pi / 4, 1, 9)
        run = experiments.chsh_simulate(cfg)
        assert len(run.correlations) == 1
        assert run.s_statistic is None

    def test_matches_exact_within_error(self):
        g = np.random.default_rng(55)
        for k in range(3):
            angles = g.uniform(0, 2 * np.pi, size=4)
            cfg = experiments.ChshConfig(*angles, n_trials=40000, seed=100 + k)
            run = experiments.chsh_simulate(cfg)
            exact = experiments.chsh_exact_s(cfg)
            var = 0.0
            for (la, lb), (ang_a, ang_b) in cfg.angles().items():
                est, count = run.correlations[(la, lb)]
                e = -np.cos(ang_a - ang_b)
                var += (1.0 - e * e) / count
            assert abs(run.s_statistic - exact) < 3 * np.sqrt(var) + 1e-9

    def test_determinism(self):
        cfg = experiments.ChshConfig(0.0, 1.0, 2.0, 3.0, 5000, 77)
        r1 = experiments.chsh_simulate(cfg)
        r2 = experiments.chsh_simulate(cfg)
        assert np.array_equal(r1.outcome_a, r2.outcome_a)
        assert np.array_equal(r1.outcome_b, r2.outcome_b)
        assert r1.s_statistic == r2.s_statistic

    def test_csv_log(self, tmp_path):
        cfg = experiments.ChshConfig(0.0, 1.0, 2.0, 3.0, 50, 3)
        run = experiments.chsh_simulate(cfg)
        path = tmp_path / "trials.csv"
        run.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "setting_a", "setting_b",
                           "outcome_a", "outcome_b"]
        assert len(rows) == 51
        assert rows[1][1] in ("a", "a'")
        assert int(rows[1][3]) in (1, -1)

    def test_csv_log_bytes_match_csv_writer(self, tmp_path):
        cfg = experiments.ChshConfig(0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4, 400, 8)
        run = experiments.chsh_simulate(cfg)
        assert len(run.correlations) == 4
        cells = set(zip(run.setting_a.tolist(), run.setting_b.tolist(),
                        run.outcome_a.tolist(), run.outcome_b.tolist()))
        assert len(cells) == 16  # every setting pair and outcome pair occurs
        path = tmp_path / "trials.csv"
        run.write_csv(path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "setting_a", "setting_b", "outcome_a", "outcome_b"])
            for t in range(cfg.n_trials):
                w.writerow([t, experiments.SETTING_LABELS_A[run.setting_a[t]],
                            experiments.SETTING_LABELS_B[run.setting_b[t]],
                            run.outcome_a[t], run.outcome_b[t]])
        assert path.read_bytes() == reference.read_bytes()

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            experiments.ChshConfig(0.0, 0.0, 0.0, 0.0, 0, 1)


def masked_reference(cfg):
    """The previous sampler: one boolean mask and one searchsorted per
    setting pair.  Returns (outcome_a, outcome_b, correlations, s)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_trials
    ia = rng.integers(0, 2, size=n)
    ib = rng.integers(0, 2, size=n)
    u = rng.random(n)
    outcome_a = np.zeros(n, dtype=int)
    outcome_b = np.zeros(n, dtype=int)
    signs = np.array(born.OUTCOMES)
    correlations = {}
    for (la, lb), (ang_a, ang_b) in cfg.angles().items():
        mask = ((ia == experiments.SETTING_LABELS_A.index(la))
                & (ib == experiments.SETTING_LABELS_B.index(lb)))
        count = int(mask.sum())
        joint = born.singlet_joint(experiments.plane_direction(ang_a),
                                   experiments.plane_direction(ang_b))
        cell = np.minimum(np.searchsorted(np.cumsum(joint.ravel()), u[mask],
                                          side="right"), 3)
        oa, ob = signs[cell // 2], signs[cell % 2]
        outcome_a[mask] = oa
        outcome_b[mask] = ob
        if count > 0:
            correlations[(la, lb)] = (float(np.mean(oa * ob)), count)
    s = (experiments.chsh_statistic({p: e for p, (e, _) in correlations.items()})
         if len(correlations) == 4 else None)
    return outcome_a, outcome_b, correlations, s


class TestTableSamplerMatchesMaskedReference:
    """The table-driven sampler gives the masked sampler's trials,
    correlations and s exactly, including runs with empty cells, and keeps
    each trial in 4 B."""

    ANGLE_SETS = [(0.0, 90.0, 45.0, 135.0), (0.0, 0.0, 0.0, 0.0),
                  (0.0, 0.0, 180.0, 180.0), (10.0, 200.0, 33.0, 301.0)]

    @pytest.mark.parametrize("angles", ANGLE_SETS)
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1])
    def test_identical_runs(self, angles, n, seed):
        cfg = experiments.ChshConfig(*np.deg2rad(angles), n_trials=n, seed=seed)
        run = experiments.chsh_simulate(cfg)
        oa, ob, correlations, s = masked_reference(cfg)
        assert run.setting_a.dtype == run.setting_b.dtype == np.uint8
        assert run.outcome_a.dtype == run.outcome_b.dtype == np.int8
        assert np.array_equal(run.outcome_a, oa)
        assert np.array_equal(run.outcome_b, ob)
        assert list(run.correlations.items()) == list(correlations.items())
        assert run.s_statistic == s
        if n < 4:
            assert run.s_statistic is None

    def test_random_angles(self):
        g = np.random.default_rng(7)
        for k in range(20):
            cfg = experiments.ChshConfig(*g.uniform(0, 2 * np.pi, size=4),
                                         n_trials=int(g.integers(1, 3000)),
                                         seed=int(g.integers(2**31)))
            run = experiments.chsh_simulate(cfg)
            oa, ob, correlations, s = masked_reference(cfg)
            assert np.array_equal(run.outcome_a, oa)
            assert np.array_equal(run.outcome_b, ob)
            assert run.correlations == correlations and run.s_statistic == s


class TestChshClassical:
    def test_max_is_two(self):
        assert experiments.chsh_classical_max() == 2

    def test_enumeration(self):
        values = experiments.classical_statistic_values()
        assert len(values) == 16
        assert max(values) == 2 and min(values) == -2

    def test_all_plus_assignment(self):
        all_plus = dict.fromkeys(experiments.CHSH_SIGNS, (+1) * (+1))
        assert experiments.chsh_statistic(all_plus) == 2


def brute_force_quantum_max(resolution_deg):
    """The O(N^3) scan: every (a', b, b') on the grid, first maximum kept."""
    grid = np.arange(0.0, 360.0, resolution_deg)
    rad = np.deg2rad(grid)
    best = (0.0, (0.0, 0.0, 0.0, 0.0))
    b = rad[None, :, None]
    bp = rad[None, None, :]
    for i, ap in enumerate(rad):
        s = experiments.chsh_statistic({
            ("a", "b"): -np.cos(-b), ("a", "b'"): -np.cos(-bp),
            ("a'", "b"): -np.cos(ap - b), ("a'", "b'"): -np.cos(ap - bp)})
        jb, jbp = np.unravel_index(np.argmax(np.abs(s)), s.shape[1:])
        val = float(s[0, jb, jbp])
        if abs(val) > abs(best[0]):
            best = (val, (0.0, float(grid[i]), float(grid[jb]), float(grid[jbp])))
    return best[1], best[0]


def per_row_quantum_max(resolution_deg):
    """The O(N^2) search one a' at a time: s(b, b') = f(b) + g(b') for that
    a', with s re-evaluated on the b and b' within 1e-9 of the extremes of f
    and g; a later a' must be strictly larger."""
    grid = np.arange(0.0, 360.0, resolution_deg)
    rad = np.deg2rad(grid)
    best = (0.0, (0.0, 0.0, 0.0, 0.0))
    e_a = -np.cos(-rad)

    def near_extremes(h):
        return np.flatnonzero((h >= h.max() - 1e-9) | (h <= h.min() + 1e-9))

    for i, ap in enumerate(rad):
        e = {"a": e_a, "a'": -np.cos(ap - rad)}
        f, g = (experiments.chsh_statistic({(la, lb): e[la] if lb == label else 0.0
                                            for la, lb in experiments.CHSH_SIGNS})
                for label in experiments.SETTING_LABELS_B)
        rows, cols = near_extremes(f), near_extremes(g)
        pick = {"b": rows[:, None], "b'": cols[None, :]}
        s = experiments.chsh_statistic({(la, lb): e[la][pick[lb]]
                                        for la, lb in experiments.CHSH_SIGNS})
        jb, jbp = np.unravel_index(np.argmax(np.abs(s)), s.shape)
        val = float(s[jb, jbp])
        if abs(val) > abs(best[0]):
            best = (val, (0.0, float(grid[i]), float(grid[rows[jb]]),
                          float(grid[cols[jbp]])))
    return best[1], best[0]


class TestChshQuantumMax:
    # 0.37, 2.9 and 0.13 do not divide 360, so the grid's wrap gap is
    # narrower than its step
    @pytest.mark.parametrize("resolution", [4.9, 3.3, 1.0, 0.7, 0.5, 0.2, 0.37, 2.9, 0.13])
    def test_blocks_match_per_row_search(self, resolution):
        assert experiments.chsh_quantum_max(resolution) == per_row_quantum_max(resolution)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.5, 5.0))
    def test_matches_per_row_search_at_any_resolution(self, resolution):
        assert experiments.chsh_quantum_max(resolution) == per_row_quantum_max(resolution)

    @pytest.mark.parametrize("resolution", [5.0, 4.7, 2.9])
    def test_phasor_bound_holds_on_every_row(self, resolution):
        # the pruning rests on this: on the row of a', every |s| is at most
        # |c_b| + |c_b'|, c_lb the sum of sign * exp(i t) over the terms
        # (t, lb) of the statistic
        grid = np.arange(0.0, 360.0, resolution)
        rad = np.deg2rad(grid)
        b, bp = rad[:, None], rad[None, :]
        for ap in rad:
            setting = {"a": 0.0, "a'": ap}
            bound = sum(abs(sum(sign * np.exp(1j * setting[la])
                                for (la, lb), sign in experiments.CHSH_SIGNS.items()
                                if lb == label))
                        for label in experiments.SETTING_LABELS_B)
            s = experiments.chsh_statistic({
                ("a", "b"): -np.cos(-b), ("a", "b'"): -np.cos(-bp),
                ("a'", "b"): -np.cos(ap - b), ("a'", "b'"): -np.cos(ap - bp)})
            assert np.abs(s).max() <= bound + 1e-12

    def test_memory_stays_bounded(self):
        tracemalloc.start()
        try:
            experiments.chsh_quantum_max(0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_cosines_grow_linearly_with_the_grid(self, monkeypatch):
        # the full grid of E(a', x) would take N (N + 1) cosines, N = 1800
        count = []
        cos = np.cos

        def counting_cos(x, *args, **kwargs):
            count.append(np.size(x))
            return cos(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", counting_cos)
        experiments.chsh_quantum_max(0.2)
        assert 0 < sum(count) <= 100 * 1800

    @pytest.mark.parametrize("resolution", [5.0, 2.0, 4.7])
    def test_matches_brute_force_scan(self, resolution):
        angles, s = experiments.chsh_quantum_max(resolution)
        ref_angles, ref_s = brute_force_quantum_max(resolution)
        assert angles == ref_angles
        assert s == ref_s

    def test_coarse_grid(self):
        _, s = experiments.chsh_quantum_max(5.0)
        assert abs(abs(s) - 2.0 * np.sqrt(2.0)) < 0.01

    def test_fine_grid(self):
        angles, s = experiments.chsh_quantum_max(1.0)
        assert abs(abs(s) - 2.0 * np.sqrt(2.0)) < 0.001
        assert angles[0] == 0.0

    def test_rejects_coarse_resolution(self):
        with pytest.raises(ValueError):
            experiments.chsh_quantum_max(10.0)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, np.nan])
    def test_rejects_empty_or_undefined_grid(self, resolution):
        with pytest.raises(ValueError):
            experiments.chsh_quantum_max(resolution)

    def test_grid_value_matches_exact_statistic(self):
        angles, s = experiments.chsh_quantum_max(5.0)
        cfg = experiments.ChshConfig(*np.deg2rad(angles), n_trials=1, seed=1)
        assert experiments.chsh_exact_s(cfg) == pytest.approx(s, abs=1e-12)

    def test_equal_angles_give_two(self):
        cfg = experiments.ChshConfig(1.0, 1.0, 1.0, 1.0, 1, 1)
        assert experiments.chsh_exact_s(cfg) == pytest.approx(-2.0)


class TestMedicalContrasts:
    def test_exact_covariance(self):
        cov, rho = experiments.medical_contrasts()
        assert cov[0][0] == Fraction(4, 3)
        assert cov[1][1] == Fraction(4, 3)
        assert cov[0][1] == Fraction(-4, 9)
        assert rho == Fraction(-1, 3)

    def test_zeta_values(self):
        za, zb = experiments.zeta_contrasts([3.0, 0.0, 0.0, 0.0])
        assert za == pytest.approx(3.0)
        assert zb == pytest.approx(-1.0)


class TestPsiTransform:
    def test_ones_vector(self):
        assert np.allclose(experiments.psi_transform([1, 1, 1, 1]),
                           [2.0, 0.0, 0.0, 0.0])

    def test_zero_vector(self):
        assert np.allclose(experiments.psi_transform([0, 0, 0, 0]), 0.0)

    def test_norm_preserving(self):
        g = np.random.default_rng(4)
        mu = g.normal(size=4)
        psi = experiments.psi_transform(mu)
        assert np.linalg.norm(psi) == pytest.approx(np.linalg.norm(mu), abs=1e-12)

    def test_orthogonal_in_rationals(self):
        m = experiments.PSI_MATRIX
        for i in range(4):
            for j in range(4):
                dot = sum(m[i][k] * m[j][k] for k in range(4))
                assert dot == (1 if i == j else 0)

    def test_zeta_identities(self):
        g = np.random.default_rng(8)
        for _ in range(10):
            mu = g.normal(size=4)
            za, zb = experiments.zeta_contrasts(mu)
            _, p1, p2, p3 = experiments.psi_transform(mu)
            assert za == pytest.approx(-2.0 / 3.0 * (p1 + p2 + p3), abs=1e-12)
            assert zb == pytest.approx(-2.0 / 3.0 * (p1 - p2 - p3), abs=1e-12)


class TestOrthant:
    def test_independent(self):
        assert experiments.orthant_conditional(0.0) == pytest.approx(0.5)

    def test_medical_rho(self):
        v = experiments.orthant_conditional(-1.0 / 3.0)
        assert v == pytest.approx(0.5 + np.arcsin(-1.0 / 3.0) / np.pi)

    def test_synthetic_rhos_match_mc(self):
        g = np.random.default_rng(12)
        for rho in (-0.8, -0.3, 0.0, 0.4, 0.9):
            n = 200000
            x = g.standard_normal(n)
            y = rho * x + np.sqrt(1 - rho * rho) * g.standard_normal(n)
            cond = x > 0
            p = np.mean(y[cond] > 0)
            se = np.sqrt(p * (1 - p) / cond.sum())
            assert abs(p - experiments.orthant_conditional(rho)) < 3.5 * se


class TestMedicalBayes:
    def test_closed_form_vs_mc(self):
        res = experiments.medical_bayes(200000, 19)
        assert res.closed_form == pytest.approx(
            0.5 + np.arcsin(-1.0 / 3.0) / np.pi)
        assert abs(res.mc_estimate - res.closed_form) < 3 * res.mc_se

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            experiments.medical_bayes(100, 1)


class TestMedicalQuantum:
    def test_exact_third(self):
        closed, abstract = experiments.medical_quantum()
        assert closed == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abstract == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_direction_geometry(self):
        dot = float(experiments.QUANTUM_DIRECTION_A
                    @ experiments.QUANTUM_DIRECTION_B)
        assert dot == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_symmetric_in_roles(self):
        from avq import born
        a = experiments.QUANTUM_DIRECTION_A
        b = experiments.QUANTUM_DIRECTION_B
        assert born.spin_half_transition(b, a, +1) == \
            pytest.approx(1.0 / 3.0, abs=1e-12)


class TestMedicalReport:
    def test_fields(self):
        res = experiments.medical_report(50000, 21)
        d = res.to_dict()
        assert set(d) == {"rho", "bayes_closed", "bayes_mc", "mc_se",
                          "quantum", "paper_reported"}
        assert d["rho"] == pytest.approx(-1.0 / 3.0)
        assert d["quantum"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert d["paper_reported"] == 0.43
        assert 0.0 <= d["bayes_mc"] <= 1.0


# Sizes around one block and four blocks of samples, and one spanning many.
BLOCK = inference._BLOCK
BLOCK_SIZES = [10_000, BLOCK - 1, BLOCK, BLOCK + 1, 65_535, 65_536, 65_537, 200_003]


def whole_array_simulate(cfg):
    """The sampler drawing every uniform at once: (ia, ib, outcome_a,
    outcome_b, counts per setting pair and cell)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_trials
    ia = rng.integers(0, 2, size=n)
    ib = rng.integers(0, 2, size=n)
    u = rng.random(n)
    cdf = np.array([np.cumsum(born.singlet_joint(experiments.plane_direction(ang_a),
                                                 experiments.plane_direction(ang_b)).ravel())
                    for ang_a, ang_b in cfg.angles().values()])
    pair_code = (2 * ia + ib).astype(np.uint8)
    cell = np.zeros(n, dtype=np.uint8)
    for k in range(3):
        cell += u >= np.take(cdf[:, k], pair_code)
    counts = np.bincount(4 * pair_code + cell, minlength=16).reshape(4, 4).tolist()
    return ia, ib, experiments._CELL_A[cell], experiments._CELL_B[cell], counts


def whole_array_medical(n_samples, seed):
    """The estimator drawing one (4, n) array: (mc_estimate, mc_se)."""
    mu = np.random.default_rng(seed).standard_normal((4, n_samples))
    za = experiments._FLOAT_A @ mu
    zb = experiments._FLOAT_B @ mu
    cond = za > 0
    p = float(np.mean(zb[cond] > 0))
    return p, float(np.sqrt(p * (1.0 - p) / int(cond.sum())))


def traced_peak(fn):
    """(fn(), the tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestBlockedDrawsMatchWholeArrays:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    def test_simulate(self, n, seed):
        angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=4)
        cfg = experiments.ChshConfig(*angles, n_trials=n, seed=seed)
        run = experiments.chsh_simulate(cfg)
        ia, ib, oa, ob, counts = whole_array_simulate(cfg)
        got = (run.setting_a, run.setting_b, run.outcome_a, run.outcome_b)
        assert [a.dtype for a in got] == [np.uint8, np.uint8, np.int8, np.int8]
        for a, want in zip(got, (ia, ib, oa, ob)):
            assert np.array_equal(a, want)
        for (est, count), row in zip(run.correlations.values(), counts):
            assert count == sum(row)
            assert est == (count - 2 * (row[1] + row[2])) / count
        assert len(run.correlations) == 4

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("seed", [0, 7, 19, 2**31 - 1])
    def test_medical(self, n, seed):
        res = experiments.medical_bayes(n, seed)
        assert type(res.mc_estimate) is float and type(res.mc_se) is float
        assert (res.mc_estimate, res.mc_se) == whole_array_medical(n, seed)


class TestMonteCarloMemory:
    """tracemalloc peaks at 10^6 samples: only returned arrays and the
    sums the draw order needs are full length."""

    def test_medical(self):
        _, peak = traced_peak(lambda: experiments.medical_bayes(10**6, 7))
        assert peak < 24 * 2**20  # the two contrast sums are 16 MB

    def test_simulate_holds_little_beyond_its_result(self):
        cfg = experiments.ChshConfig(*np.deg2rad([0.0, 90.0, 45.0, 135.0]), 10**6, 42)
        run, peak = traced_peak(lambda: experiments.chsh_simulate(cfg))
        returned = sum(a.nbytes for a in (run.setting_a, run.setting_b,
                                          run.outcome_a, run.outcome_b))
        assert returned == 4 * 10**6
        assert peak - returned < 4 * 2**20

    def test_write_csv(self, tmp_path):
        run = experiments.chsh_simulate(
            experiments.ChshConfig(*np.deg2rad([0.0, 90.0, 45.0, 135.0]), 10**5, 42))
        _, peak = traced_peak(lambda: run.write_csv(tmp_path / "trials.csv"))
        assert peak < 2 * 2**20
        assert (tmp_path / "trials.csv").read_bytes().count(b"\r\n") == 10**5 + 1


def draw_settings(rng, m):
    return rng.integers(0, 2, size=m)


class TestLockstep:
    @pytest.mark.parametrize("n", [1, 3, 17] + BLOCK_SIZES)
    @pytest.mark.parametrize("draw", [draw_settings, np.random.Generator.standard_normal])
    def test_lock_step_blocks_match_one_whole_draw(self, n, draw):
        # odd n starts the second sub-stream of settings in the middle of a
        # 64-bit draw, whose spare half the copied generator must keep
        walk = list(inference.lockstep(23, n, [draw] * 3))
        assert [part for part, _ in walk] == [slice(i, min(i + BLOCK, n))
                                              for i in range(0, n, BLOCK)]
        assert all(len(values) == 3 for _, values in walk)
        got = np.concatenate([values[i] for i in range(3) for _, values in walk])
        assert np.array_equal(got, draw(np.random.default_rng(23), 3 * n))

    @pytest.mark.parametrize("n", [3, BLOCK + 1])
    def test_each_sub_stream_is_skipped_with_its_own_draw(self, n):
        # normal draws leave the spare 32-bit half of the settings before
        # them for the settings after them
        draws = [draw_settings, np.random.Generator.standard_normal, draw_settings]
        rng = np.random.default_rng(5)
        want = [draw(rng, n) for draw in draws]
        walk = list(inference.lockstep(5, n, draws))
        for i, whole in enumerate(want):
            assert np.array_equal(np.concatenate([values[i] for _, values in walk]), whole)


MILLION_CFG = experiments.ChshConfig(*np.deg2rad([0.0, 90.0, 45.0, 135.0]), 10**6, 42)


class TestRunIsSeedPlusCounts:
    """No Monte Carlo routine keeps an array whose length grows with n."""

    @pytest.mark.parametrize("routine", [
        lambda: experiments.chsh_simulate(MILLION_CFG),
        lambda: experiments.medical_bayes(10**6, 7),
        lambda: inference.prop2_experiment(-1.96, 1.96, inference.SimulationSpec(10**6, 6)),
    ], ids=["chsh_simulate", "medical_bayes", "prop2_experiment"])
    def test_peak_at_a_million_samples(self, routine):
        _, peak = traced_peak(routine)
        assert peak < 2 * 2**20

    def test_run_holds_no_per_trial_array(self):
        cfg = experiments.ChshConfig(0.0, 1.0, 2.0, 3.0, 3 * BLOCK + 5, 11)
        run = experiments.chsh_simulate(cfg)
        assert set(vars(run)) == {"config", "correlations", "s_statistic"}
        assert not any(np.size(value) == cfg.n_trials for value in vars(run).values())

    @pytest.mark.parametrize("n", [1, BLOCK + 1, 3 * BLOCK + 5])
    def test_trial_blocks_concatenate_to_the_arrays(self, n):
        run = experiments.chsh_simulate(experiments.ChshConfig(0.0, 1.0, 2.0, 3.0, n, 12))
        parts, ia, ib, cell = zip(*run.trials())
        assert [p.start for p in parts] == list(range(0, n, BLOCK))
        assert parts[-1].stop == n
        cell = np.concatenate(cell)
        for got, want in [(np.concatenate(ia), run.setting_a),
                          (np.concatenate(ib), run.setting_b),
                          (experiments._CELL_A[cell], run.outcome_a),
                          (experiments._CELL_B[cell], run.outcome_b)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_each_read_builds_a_new_array(self):
        run = experiments.chsh_simulate(experiments.ChshConfig(0.0, 1.0, 2.0, 3.0, 500, 13))
        first, second = run.outcome_a, run.outcome_a
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
