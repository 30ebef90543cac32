import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasloss import approx, factorize, hist, lpcore, model, partition
from gasloss.errors import NumericalFailure
from gasloss.lpcore import GameSolution, LinearProgram
from helpers import (random_instance, reference_run_simplex,
                     reference_solve_lp, reference_tableau)


def _random_solvable_lp(rng, n, m):
    """Bounded feasible maximization: random <= rows plus a box row."""
    a = rng.random((m, n))
    b = 1 + rng.random(m)
    a = np.vstack([a, np.ones(n)])      # keeps the program bounded
    b = np.concatenate([b, [10.0]])
    c = rng.random(n)
    return LinearProgram(c, a, b)


class TestSolveLP:
    def test_single_bound(self):
        res = lpcore.solve_lp(LinearProgram([1.0], [[1.0]], [5.0]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(5.0)
        assert res.x[0] == pytest.approx(5.0)

    def test_redundant_constraint(self):
        res = lpcore.solve_lp(LinearProgram(
            [1.0, 1.0], [[1, 1], [1, 0]], [1.0, 0.3]))
        assert res.value == pytest.approx(1.0)

    def test_table1_gas_lp(self, table1):
        from gasloss import model
        g = model.minimal_gas_measure(table1).costs
        res = lpcore.solve_lp(LinearProgram(
            g, table1.usage.T, table1.capacities))
        assert res.value == pytest.approx(11 / 8, abs=1e-9)

    @pytest.mark.parametrize("bound", [-2.0, -0.5, np.nan])
    def test_negative_or_nan_bound_is_refused(self, bound):
        # x = 0 must be feasible, so that one pass from the slack basis
        # solves the program
        with pytest.raises(ValueError, match="bounds must be >= 0"):
            LinearProgram([1.0, 2.0], [[1, 1], [-1, 0]], [1.0, bound])

    def test_unbounded(self):
        res = lpcore.solve_lp(LinearProgram([1.0, 0.0], [[0, 1]], [1.0]))
        assert res.status == "unbounded"

    def test_strong_duality_on_random_lps(self):
        rng = np.random.default_rng(11)
        for i in range(100):
            n = rng.integers(1, 9)
            m = rng.integers(1, 9)
            lp = _random_solvable_lp(rng, n, m)
            if i % 2 == 0:
                # random-sign objective: some variables are best left at 0
                lp = LinearProgram(rng.normal(size=n), lp.matrix, lp.bounds)
            res = lpcore.solve_lp(lp)
            assert res.status == "optimal"
            # primal feasibility
            slack = lp.bounds - lp.matrix @ res.x
            assert np.all(res.x >= -1e-9)
            assert np.all(slack >= -1e-8)
            # dual feasibility: A^T y >= c, y >= 0
            assert np.all(lp.matrix.T @ res.y >= lp.objective - 1e-8)
            assert np.all(res.y >= -1e-9)
            # zero gap and complementary slackness
            dual_value = float(lp.bounds @ res.y)
            assert dual_value == pytest.approx(
                res.value, rel=1e-8, abs=1e-8)
            assert np.all(np.abs(res.y * slack) < 1e-8)

    def test_non_finite_data_is_never_optimal(self):
        for bad in (np.inf, np.nan):
            with np.errstate(all="ignore"), pytest.raises(
                    (NumericalFailure, ValueError)):
                lpcore.solve_lp(LinearProgram([1.0], [[1.0]], [bad]))


# Beale's cycling example: the largest-coefficient rule with the
# lowest-index leaving row cycles among degenerate bases
BEALE = LinearProgram([0.75, -20.0, 0.5, -6.0],
                      [[0.25, -8.0, -1.0, 9.0],
                       [0.5, -12.0, -0.5, 3.0],
                       [0.0, 0.0, 1.0, 0.0]],
                      [0.0, 0.0, 1.0])


def _pivot_loop_lps(rng):
    """Random LPs for the pivot-loop reference: dense, sparse, with zero
    right-hand sides, and with duplicated columns and rows; small
    integer data makes ratio ties and degenerate pivots common."""
    lps = []
    for i in range(240):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        kind = i % 4
        if kind == 0:       # dense
            lps.append(LinearProgram(rng.normal(size=n),
                                     rng.normal(size=(m, n)),
                                     rng.random(m) + 0.1))
            continue
        a = rng.integers(-2, 4, size=(m, n)).astype(float)
        b = rng.integers(0, 3, size=m).astype(float)
        if kind == 1:       # sparse
            a *= rng.random((m, n)) < 0.3
        elif kind == 2:
            b[:] = 0.0
        else:               # duplicated columns and rows
            a = a[:, rng.integers(0, n, size=n + 2)]
            keep = rng.integers(0, m, size=m + 2)
            a, b = a[keep], b[keep]
        c = rng.integers(-2, 4, size=a.shape[1]).astype(float)
        lps.append(LinearProgram(c, a, b))
    return lps + [BEALE]


class TestPivotLoop:
    def test_beale_needs_blands_rule(self):
        res = lpcore.solve_lp(BEALE)
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.25, abs=1e-12)
        assert np.allclose(res.x, [1.0, 0.0, 1.0, 0.0], rtol=0, atol=1e-12)

    def test_beale_cycles_without_blands_rule(self, monkeypatch):
        monkeypatch.setattr(lpcore, "DEGENERATE_BUDGET",
                            lpcore.MAX_ITERATIONS + 1)
        with pytest.raises(NumericalFailure,
                           match="simplex iteration limit exceeded"):
            lpcore.solve_lp(BEALE)

    def test_matches_the_reference_loop_bit_for_bit(self, monkeypatch):
        tableaus = []
        simplex = lpcore._run_simplex

        def record(T, basis):
            tableaus.append((T.copy(), basis.copy()))
            return simplex(T, basis)

        monkeypatch.setattr(lpcore, "_run_simplex", record)
        statuses = {"optimal": 0, "unbounded": 0}
        for lp in _pivot_loop_lps(np.random.default_rng(30)):
            tableaus.clear()
            status, value, x, y = reference_solve_lp(lp)
            statuses[status] += 1
            res = lpcore.solve_lp(lp)
            assert res.status == status
            if status == "optimal":
                assert res.value == value
                assert np.array_equal(res.x, x)
                assert np.array_equal(res.y, y)
            # the same slack-basis tableau, then the same pivots
            T, basis = reference_tableau(lp)
            assert np.array_equal(tableaus[0][0], T)
            assert np.array_equal(tableaus[0][1], basis)
            T_ref, basis_ref = T.copy(), basis.copy()
            assert simplex(T, basis) == reference_run_simplex(
                T_ref, basis_ref) == status
            assert np.array_equal(T, T_ref)
            assert np.array_equal(basis, basis_ref)
        assert min(statuses.values()) > 20


class TestProductionLPs:
    def test_every_production_lp_is_slack_feasible(self, monkeypatch,
                                                    table1, simplex_passes):
        # every LP, the game oracle's included, is one simplex pass from
        # its slack basis, and is built by exactly one loss_lp call
        recorded, recorded_passes, owners = [], [], []
        solve, loss = lpcore.solve_lp, lpcore.loss_lp
        open_losses, losses = [], []

        def record(lp):
            recorded.append(lp)
            owners.append(tuple(open_losses))
            before = len(simplex_passes)
            result = solve(lp)
            recorded_passes.append(len(simplex_passes) - before)
            return result

        def record_loss(*args):
            open_losses.append(len(losses))
            losses.append(len(recorded))
            try:
                return loss(*args)
            finally:
                open_losses.pop()

        monkeypatch.setattr(lpcore, "solve_lp", record)
        monkeypatch.setattr(lpcore, "loss_lp", record_loss)
        caches = []
        init = partition._GroupLosses.__init__

        def track(self, instance):
            init(self, instance)
            caches.append(self)

        monkeypatch.setattr(partition._GroupLosses, "__init__", track)
        instances = [table1] + [random_instance(s) for s in (7, 11, 20, 23)]
        mixed_sign = np.array([[1.0, -2.0, 0.5], [-1.5, 3.0, -0.5]])
        for inst in instances:
            k = min(2, inst.num_resources)
            m = inst.num_operations
            f = np.full(m, 1.0 / m)
            runs = [
                lambda: approx.approximability(inst),
                lambda: partition.optimal_partition_exact(inst, k),
                lambda: partition.optimal_partition_greedy(inst, k),
                lambda: factorize.factor_loss(
                    inst, model.minimal_gas_measure(inst).costs[:, None]),
                lambda: factorize.alternating_factorization(inst, k),
                lambda: hist.hist_loss_range(inst, np.zeros(m), np.ones(m)),
                lambda: hist.hist_loss_range(inst, f / 2, np.minimum(2 * f, 1)),
                lambda: model.max_block_size(inst),
                lambda: approx.approximability_oracle(inst),
                lambda: lpcore.solve_zero_sum(mixed_sign),
            ]
            for t, run in enumerate(runs):
                recorded.clear()
                recorded_passes.clear()
                owners.clear()
                losses.clear()
                caches.clear()
                run()
                # loss_lp call i made solve_lp call i, and no other
                assert owners == [(i,) for i in range(len(losses))]
                assert losses == list(range(len(losses)))
                if t in (1, 2):
                    # the exact or greedy partition search solves one LP for each connected
                    # block it cached that the private-operation
                    # certificate did not settle, so none only when the
                    # certificate settled every one
                    assert len(recorded) == sum(
                        len(c._private_ops(mask, np.inf)) < mask.bit_count()
                        for c in caches for mask in c.entries
                        if mask == c._component(mask & c.used))
                else:
                    assert recorded
                for lp in recorded:
                    assert np.all(lp.bounds >= 0)
                assert recorded_passes == [1] * len(recorded)


def _scaled_loss_instance(seed, twin_row, twin_col):
    """A random instance whose usage entries span 1e-6..1e6: a sparse
    0.5..1.5 pattern times operation and resource scales in 1e-3..1e3,
    with the first operation or resource optionally duplicated."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 9), rng.integers(1, 6)
    w = rng.random((m, n)) * (rng.random((m, n)) < 0.6)
    w[np.arange(m), rng.integers(0, n, m)] += 0.5
    w *= 10.0 ** rng.uniform(-3, 3, (m, 1)) * 10.0 ** rng.uniform(-3, 3, n)
    if twin_row:
        w = np.vstack([w, w[:1]])
    if twin_col:
        w = np.hstack([w, w[:, :1]])
    m, n = w.shape
    return model.instance_from_arrays(
        [f"op{i}" for i in range(m)], [f"r{j}" for j in range(n)], w,
        10.0 ** rng.uniform(-1, 1, n))


def _loss_program(instance):
    g = model.minimal_gas_measure(instance).costs
    n = instance.num_resources
    return LinearProgram(g, instance.normalized_usage.T, np.ones(n))


class TestSlackBasisPath:
    @given(seed=st.integers(min_value=0, max_value=10**6),
           twin_row=st.booleans(), twin_col=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_phase_1_and_the_oracle(self, seed, twin_row, twin_col):
        inst = _scaled_loss_instance(seed, twin_row, twin_col)
        lp = _loss_program(inst)
        res = lpcore.solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(
            approx.approximability_oracle(inst), rel=1e-8)
        # the certificate, recomputed: y >= 0, M y >= g, 1 @ y = g @ x
        M, g, y = inst.normalized_usage, lp.objective, res.y
        tol = 1e-9 * (1 + np.abs(M).max() * np.abs(y).max() + g.max())
        assert y.min() >= -tol
        assert np.all(M @ y >= g - tol)
        assert abs(y.sum() - g @ res.x) <= tol * (1 + np.abs(res.x).max())

    @pytest.mark.parametrize("scale", [0.5, 0.0])
    def test_corrupted_objective_row_is_refused(self, monkeypatch, table1,
                                                scale):
        # reduced costs halved or zeroed after an optimal pass: the dual
        # read off them must be refused, not reported as "optimal"
        simplex = lpcore._run_simplex

        def corrupted(T, basis):
            status = simplex(T, basis)
            T[-1, :-1] *= scale
            return status

        monkeypatch.setattr(lpcore, "_run_simplex", corrupted)
        with pytest.raises(NumericalFailure, match="certificate"):
            approx.approximability(table1)


class TestZeroSum:
    def test_table2_game(self, table1):
        from gasloss import approx
        U = approx.build_game(table1)
        sol = lpcore.solve_zero_sum(U)
        assert sol.value == pytest.approx(8 / 11, abs=1e-9)
        assert lpcore.verify_equilibrium(U, sol, 1e-8)
        paper = GameSolution(8 / 11, np.array([5 / 11, 0, 0, 6 / 11]),
                             np.array([5 / 11, 6 / 11]))
        assert lpcore.verify_equilibrium(U, paper, 1e-9)

    def test_symmetric_identity(self):
        sol = lpcore.solve_zero_sum(np.eye(2))
        assert sol.value == pytest.approx(0.5, abs=1e-9)

    def test_one_by_one(self):
        for c in (-3.5, 0.0, 2.25):
            assert lpcore.solve_zero_sum([[c]]).value == pytest.approx(c)

    def test_minimax_equals_maximin(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = rng.integers(1, 7)
            n = rng.integers(1, 7)
            U = rng.normal(size=(m, n))
            sol = lpcore.solve_zero_sum(U)
            assert lpcore.verify_equilibrium(U, sol, 2e-9)

    @given(c=st.floats(min_value=-5, max_value=5),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_shift_moves_value_by_constant(self, c, seed):
        rng = np.random.default_rng(seed)
        U = rng.random((3, 3))
        base = lpcore.solve_zero_sum(U).value
        shifted = lpcore.solve_zero_sum(U + c).value
        assert shifted == pytest.approx(base + c, abs=1e-9)

    @given(c=st.floats(min_value=1e-2, max_value=10),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_positive_scaling_scales_value(self, c, seed):
        rng = np.random.default_rng(seed)
        U = rng.random((3, 4))
        base = lpcore.solve_zero_sum(U).value
        scaled = lpcore.solve_zero_sum(c * U).value
        assert scaled == pytest.approx(c * base, rel=1e-8, abs=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        U = rng.random((5, 4))
        a = lpcore.solve_zero_sum(U)
        b = lpcore.solve_zero_sum(U.copy())
        assert a.value == b.value
        assert np.array_equal(a.row_strategy, b.row_strategy)
        assert np.array_equal(a.col_strategy, b.col_strategy)


class TestVerifyEquilibrium:
    def test_uniform_row_strategy_rejected(self, table1):
        from gasloss import approx
        U = approx.build_game(table1)
        bad = GameSolution(8 / 11, np.full(4, 0.25),
                           np.array([5 / 11, 6 / 11]))
        # uniform mixing lets some column exceed the value
        assert np.max(bad.row_strategy @ U) > 8 / 11 + 1e-9
        assert not lpcore.verify_equilibrium(U, bad, 1e-9)

    def test_non_simplex_strategy_rejected(self):
        U = np.eye(2)
        bad = GameSolution(0.5, np.array([0.45, 0.45]),
                           np.array([0.5, 0.5]))
        assert not lpcore.verify_equilibrium(U, bad, 1e-6)

    def test_dimension_mismatch_rejected(self):
        U = np.eye(2)
        bad = GameSolution(0.5, np.array([1.0]), np.array([0.5, 0.5]))
        assert not lpcore.verify_equilibrium(U, bad, 1e-6)
