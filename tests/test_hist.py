import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasloss import approx, formats, hist, lpcore, model
from gasloss.errors import InstanceError
from helpers import random_instance, reference_range_lp


def random_simplex_point(rng, m):
    f = rng.random(m)
    return f / f.sum()


class TestHistStrategy:
    def test_table1_uniform(self, table1):
        g = model.minimal_gas_measure(table1)
        x = hist.hist_strategy(g, [0.25, 0.25, 0.25, 0.25])
        assert np.allclose(x, [5 / 34, 10 / 34, 9 / 34, 10 / 34],
                           rtol=0, atol=1e-15)

    def test_uniform_costs_pass_through(self):
        g = model.GasMeasure(np.full(3, 0.5))
        f = np.array([0.2, 0.3, 0.5])
        assert np.allclose(hist.hist_strategy(g, f), f)

    def test_point_mass_stays_point_mass(self, table1):
        g = model.minimal_gas_measure(table1)
        f = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.allclose(hist.hist_strategy(g, f), f)

    def test_degenerate_profile(self):
        g = model.GasMeasure(np.array([0.0, 1.0]))
        with pytest.raises(InstanceError,
                           match="all frequency mass on zero-cost operations"):
            hist.hist_strategy(g, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_frequencies_rejected(self, table1, bad):
        g = model.minimal_gas_measure(table1)
        with pytest.raises(InstanceError, match="frequencies must be finite"):
            hist.hist_strategy(g, [bad, 1, 0, 0])
        with pytest.raises(InstanceError, match="frequencies must be finite"):
            hist.hist_loss(table1, [bad, 1, 0, 0])

    def test_negative_frequencies_rejected(self, table1):
        # the CLI's profile loader refuses these too; unchecked, this mix
        # gave an x_hist entry of -0.21 and alpha_hist 1.043
        g = model.minimal_gas_measure(table1)
        for call in (lambda f: hist.hist_strategy(g, f),
                     lambda f: hist.hist_loss(table1, f)):
            with pytest.raises(InstanceError, match="nonnegative"):
                call([-0.5, 0.5, 0.5, 0.5])


class TestHistLoss:
    def test_table1_uniform_appendix_example(self, table1):
        report = hist.hist_loss(table1, [0.25] * 4)
        assert np.allclose(report.column_payoffs, [27 / 34, 25 / 34],
                           atol=1e-12)
        assert report.alpha_hist == pytest.approx(34 / 27, abs=1e-9)
        assert report.best_reply_column == 0

    def test_equilibrium_mix_recovers_worst_case(self, table1):
        # the inverse of the gas weighting at x* = (5/11, 0, 0, 6/11)
        f = np.array([5 / 8, 0, 0, 3 / 8])
        report = hist.hist_loss(table1, f)
        assert report.alpha_hist == pytest.approx(11 / 8, abs=1e-9)
        assert np.allclose(report.column_payoffs, 8 / 11, atol=1e-12)

    def test_table3_best_reply(self, table3):
        # the maximizing reply to (5%, 80%, 15%) is resource 1 at 0.95,
        # not 0.85, so the loss is 20/19 (see the report warning emitted
        # by the CLI for the documented discrepancy)
        report = hist.hist_loss(table3, [0.05, 0.80, 0.15])
        assert np.allclose(report.column_payoffs, [0.95, 0.85], atol=1e-12)
        assert report.nu_hist == pytest.approx(0.95, abs=1e-12)
        assert report.alpha_hist == pytest.approx(20 / 19, abs=1e-9)
        assert report.best_reply_column == 0

    def test_sandwich_between_one_and_alpha(self):
        rng = np.random.default_rng(17)
        for seed in range(15):
            inst = random_instance(seed)
            alpha = approx.approximability(inst).alpha
            f = random_simplex_point(rng, inst.num_operations)
            report = hist.hist_loss(inst, f)
            assert 1 - 1e-9 <= report.alpha_hist <= alpha + 1e-9


class TestHistLossRange:
    def test_degenerate_box_matches_point(self, table1):
        f = np.full(4, 0.25)
        report = hist.hist_loss_range(table1, f, f)
        assert report.alpha_hist == pytest.approx(34 / 27, abs=1e-8)

    def test_full_simplex_recovers_worst_case(self, table1):
        report = hist.hist_loss_range(table1, np.zeros(4), np.ones(4))
        assert report.alpha_hist == pytest.approx(11 / 8, abs=1e-7)
        # the two 30x8 instances have near-tied payoff levels close to alpha
        instances = [random_instance(seed) for seed in range(30)] + [
            formats.random_instance_doc(30, 8, 0.5, seed).to_instance()
            for seed in (1800200, 3200100)]
        for inst in instances:
            m = inst.num_operations
            report = hist.hist_loss_range(inst, np.zeros(m), np.ones(m))
            assert report.alpha_hist == pytest.approx(
                approx.approximability(inst).alpha, rel=1e-9)

    def test_point_box_consistency_sweep(self, table1):
        rng = np.random.default_rng(29)
        for _ in range(20):
            f = random_simplex_point(rng, 4)
            point = hist.hist_loss(table1, f)
            box = hist.hist_loss_range(table1, f, f)
            assert abs(box.alpha_hist - point.alpha_hist) <= 1e-8

    def test_range_dominates_sampled_points(self, table1):
        rng = np.random.default_rng(31)
        boxes = [(table1, np.full(4, 0.1), np.full(4, 0.6))]
        for seed in range(30):
            inst = random_instance(seed)
            f = random_simplex_point(rng, inst.num_operations)
            boxes.append((inst, f / 2, np.minimum(2 * f, 1)))
        for inst, lo, hi in boxes:
            ranged = hist.hist_loss_range(inst, lo, hi)
            for _ in range(20):
                f = lo + rng.random(lo.size) * (hi - lo)
                f = np.clip(f / f.sum(), lo, hi)
                if abs(f.sum() - 1) > 1e-12:
                    continue
                assert ranged.alpha_hist >= hist.hist_loss(
                    inst, f).alpha_hist - 1e-8

    def test_attaining_frequency_is_in_box(self, table1):
        lo = np.array([0.1, 0.0, 0.0, 0.1])
        hi = np.array([0.9, 0.5, 0.5, 0.9])
        report = hist.hist_loss_range(table1, lo, hi)
        assert np.all(report.frequency >= lo - 1e-8)
        assert np.all(report.frequency <= hi + 1e-8)
        assert report.frequency.sum() == pytest.approx(1.0, abs=1e-8)
        point = hist.hist_loss(table1, report.frequency)
        assert point.alpha_hist == pytest.approx(report.alpha_hist, abs=1e-7)

    def test_empty_box(self, table1):
        with pytest.raises(InstanceError,
                           match="need 0 <= f_low <= f_high componentwise"):
            hist.hist_loss_range(table1, np.full(4, 0.3), np.full(4, 0.2))
        with pytest.raises(InstanceError,
                           match="the box does not intersect the simplex"):
            hist.hist_loss_range(table1, np.zeros(4), np.full(4, 0.2))
        with pytest.raises(InstanceError,
                           match="the box does not intersect the simplex"):
            hist.hist_loss_range(table1, np.full(4, 0.3), np.full(4, 0.6))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_box_rejected(self, table1, bad):
        low, high = np.zeros(4), np.ones(4)
        for bounds in (([bad, 0, 0, 0], high), (low, [1, 1, bad, 1])):
            with pytest.raises(InstanceError,
                               match="box bounds must be finite"):
                hist.hist_loss_range(table1, *bounds)


def _box(kind, rng, f):
    """A box around the mix f: tight (+-10%), [0, 3 f], random, the point
    f, or the whole simplex."""
    if kind == "tight":
        return 0.9 * f, np.minimum(1.1 * f, 1.0)
    if kind == "wide":
        return np.zeros_like(f), np.minimum(3 * f, 1.0)
    if kind == "random":
        return f * rng.random(f.size), f + (1 - f) * rng.random(f.size)
    if kind == "point":
        return f, f
    return np.zeros_like(f), np.ones_like(f)


def _bench_box(seed, m, n):
    """The instance and box [mix/2, min(2 mix, 1)] that the bench's
    hist_factor workload builds for a job seed."""
    inst = formats.random_instance_doc(m, n, 0.5, seed).to_instance()
    mix = np.random.default_rng(seed).dirichlet(np.ones(m))
    return inst, mix / 2, np.minimum(2 * mix, 1.0)


def _lowest_best_reply(report):
    payoffs = report.column_payoffs
    return int(np.flatnonzero(payoffs >= report.nu_hist * (1 - 1e-12))[0])


class TestRangeLP:
    @given(seed=st.integers(min_value=0, max_value=10**6),
           kind=st.sampled_from(("tight", "wide", "random", "point",
                                 "simplex")))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_dense_row_reference(self, seed, kind):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 41)), int(rng.integers(1, 11))
        inst = formats.random_instance_doc(
            m, n, float(rng.uniform(0.3, 1.0)), seed).to_instance()
        low, high = _box(kind, rng, rng.dirichlet(np.ones(m)))
        alpha, _ = reference_range_lp(inst, low, high)
        report = hist.hist_loss_range(inst, low, high)
        assert report.alpha_hist == pytest.approx(alpha, rel=1e-9)
        mix = report.frequency
        assert np.all(mix >= low - 1e-9) and np.all(mix <= high + 1e-9)
        assert mix.sum() == pytest.approx(1.0, abs=1e-12)
        # the LP's own value is the loss at the mix it reports
        sol = lpcore.loss_lp(model.minimal_gas_measure(inst).costs,
                             inst.normalized_usage, low, high)
        assert np.array_equal(sol.x / sol.x.sum(), mix)
        assert sol.alpha == pytest.approx(
            hist.hist_loss(inst, mix).alpha_hist, rel=1e-9)
        assert report.best_reply_column == _lowest_best_reply(report)

    @pytest.mark.parametrize("seed", [s * 100_000 + r * 100 + 2
                                      for s in (1, 2, 3) for r in range(4)])
    def test_bench_boxes_take_few_pivots(self, monkeypatch, seed):
        # the dense-row reference takes 177-278 pivots on these boxes
        pivots = []
        pivot = lpcore._pivot

        def count(*args):
            pivots.append(1)
            return pivot(*args)

        monkeypatch.setattr(lpcore, "_pivot", count)
        inst, low, high = _bench_box(seed, 100, 10)
        hist.hist_loss_range(inst, low, high)
        assert len(pivots) <= 120

    def test_bounds_off_by_round_off_are_answered(self):
        # the bench mix of this instance, rounded to 12 digits, sums to
        # 1 + 5.2e-13; the dense-row LP found no feasible frequency for
        # it, failed its certificate on the point box f (1 -+ 5e-10), and
        # on the point box with f_low 1e-13 above f_high it answered a
        # mix outside the box
        inst, half, _ = _bench_box(100000, 30, 8)
        f = 2 * half
        rounded = np.array([float(f"{v:.12g}") for v in f])
        assert rounded.sum() > 1
        point = hist.hist_loss(inst, f).alpha_hist
        report = hist.hist_loss_range(inst, rounded, 2 * f)
        mix = report.frequency
        assert np.all(mix >= rounded - 1e-9) and np.all(mix <= 2 * f + 1e-9)
        assert report.alpha_hist >= point * (1 - 1e-9)
        for low, high in ((f * (1 - 5e-10), f * (1 + 5e-10)),
                          (f + 1e-13, f)):
            report = hist.hist_loss_range(inst, low, high)
            assert np.abs(report.frequency - f).max() <= 1e-10
            assert report.alpha_hist == pytest.approx(point, rel=1e-9)

    def test_tied_best_replies_resolve_to_the_lowest_index(self):
        # every column's payoff ties at these optima, up to the last bit
        ecp = formats.ecp_instance_doc([1, 3, 2, 2], 0.1).to_instance()
        m = ecp.num_operations
        for high in (0.75, 1.0):
            report = hist.hist_loss_range(ecp, np.zeros(m),
                                          np.full(m, high))
            assert np.allclose(report.column_payoffs, 5 / 24, rtol=1e-12)
            assert report.best_reply_column == 0
        inst = formats.random_instance_doc(30, 8, 0.5, 1).to_instance()
        report = hist.hist_loss_range(inst, np.zeros(30), np.full(30, 0.75))
        assert report.best_reply_column == _lowest_best_reply(report) == 2


class TestMultiBlockAveraging:
    def test_best_reply_payoff_is_linear_in_the_mix(self, table1):
        # the guarantee extends to any block sequence with a given
        # average mix: the fixed best-reply column's payoff is linear
        U = approx.build_game(table1)
        rng = np.random.default_rng(41)
        for _ in range(10):
            mixes = rng.random((6, 4))
            mixes /= mixes.sum(axis=1, keepdims=True)
            avg = mixes.mean(axis=0)
            report = hist.hist_loss(table1, avg)
            col = report.best_reply_column
            g = model.minimal_gas_measure(table1).costs
            per_block = [
                (hist.hist_strategy(model.GasMeasure(g), f) @ U)[col]
                # weight each block by its total gas mass
                * (f @ g)
                for f in mixes]
            combined = sum(per_block) / sum(f @ g for f in mixes)
            assert combined == pytest.approx(report.nu_hist, abs=1e-9)
