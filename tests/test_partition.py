import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasloss import approx, formats, lpcore, model, partition
from gasloss.errors import InstanceError, TooManyResources
from helpers import random_instance


def balanced_ecp_elements(rng, half_size):
    """A yes-instance: the second half is a shuffle of the first."""
    first = rng.integers(1, 10, size=half_size)
    second = rng.permutation(first)
    return list(first) + list(second)


def reference_group_loss(instance, cols):
    """One loss LP on the block's columns, with the operations it does
    not use dropped; a block no operation uses has loss 1."""
    sub = instance.normalized_usage[:, sorted(cols)]
    sub = sub[np.any(sub > 0, axis=1)]
    if sub.size == 0:
        return 1.0
    return lpcore.loss_lp(sub.max(axis=1), sub).alpha


def reference_exact(instance, k, cache):
    """The plain enumeration the structure-aware search replaced: every
    subset of the rest joins the block holding the first unplaced
    resource, and every block costs one LP (memoized in cache).  Returns
    the groups and per-group losses of the best partition."""
    n = instance.num_resources
    best = {"loss": np.inf, "key": None, "groups": None}

    def loss_of(block):
        if block not in cache:
            cache[block] = reference_group_loss(instance, block)
        return cache[block]

    def recurse(remaining, groups, worst):
        if not remaining:
            # restricted-growth labels: resource j gets its group's index
            key = tuple(next(r for r, g in enumerate(groups) if j in g)
                        for j in range(n))
            if (worst < best["loss"] - 1e-12
                    or (worst <= best["loss"] + 1e-12
                        and (best["key"] is None or key < best["key"]))):
                best.update(loss=min(worst, best["loss"]), key=key,
                            groups=tuple(groups))
            return
        if len(groups) == k:
            return
        first, rest = remaining[0], remaining[1:]
        for bits in range(1 << len(rest)):
            block = (first,) + tuple(
                rest[t] for t in range(len(rest)) if bits >> t & 1)
            loss = loss_of(block)
            if loss > best["loss"] + 1e-12:
                continue
            left = tuple(j for j in rest if j not in block)
            recurse(left, groups + [block], max(worst, loss))

    recurse(tuple(range(n)), [], 1.0)
    return best["groups"], [loss_of(g) for g in best["groups"]]


def ecp_fixtures():
    """(elements, epsilon) of every ECP fixture of acceptance criterion 7,
    in its order, and a 12-resource no-instance (no 3 of its 6 elements
    sum to T = 7)."""
    fixtures = [([1, 3, 2, 2], 0.1), ([1, 1, 1, 5], 0.1)]
    rng = np.random.default_rng(1234)
    for trial in range(20):
        half = 3 if trial % 4 == 0 else 2
        first = rng.integers(1, 10, size=half)
        elements = list(first) + list(rng.permutation(first))
        fixtures.append((elements, 1 / (4 * int(sum(first)))))
    return fixtures + [([1, 1, 1, 1, 1, 9], 1 / 28)]


def assert_search_matches_reference(instance):
    cache = {}
    for k in (2, 3):
        plan = partition.optimal_partition_exact(instance, k)
        groups, losses = reference_exact(instance, k, cache)
        assert plan.groups == groups
        assert np.allclose(plan.per_group_losses, losses, rtol=1e-12, atol=0)
        assert plan.loss == pytest.approx(max(losses), rel=1e-12)


def block_diagonal_instance(rng, num_blocks):
    """Random dense blocks on the diagonal, rows and columns shuffled."""
    usage = np.zeros((0, 0))
    for _ in range(num_blocks):
        m, n = rng.integers(1, 5), rng.integers(1, 4)
        block = rng.integers(0, 6, size=(m, n)).astype(float)
        block[:, 0] += 1      # no all-zero operation row
        usage = np.block([[usage, np.zeros((usage.shape[0], n))],
                          [np.zeros((m, usage.shape[1])), block]])
    usage = usage[rng.permutation(usage.shape[0])]
    usage = usage[:, rng.permutation(usage.shape[1])]
    m, n = usage.shape
    return model.instance_from_arrays(
        [f"op{i}" for i in range(m)], [f"r{j}" for j in range(n)], usage,
        rng.integers(1, 10, size=n))


def structured_instances():
    rng = np.random.default_rng(8)
    for _ in range(12):
        yield block_diagonal_instance(rng, int(rng.integers(2, 5)))
    for seed in range(8):
        yield formats.random_instance_doc(12, 8, 0.25, seed).to_instance()
    yield partition.generate_ecp([1, 3, 2, 2, 1, 1], 0.05).instance


def random_masks(rng, n, count):
    return {int(v) for v in rng.integers(1, 1 << n, size=count)}


def plain_greedy(instance, k):
    """The agglomerative search before merges could skip their LPs: every
    candidate merge of every round gets its exact loss.  Returns the
    groups and per-group losses."""
    cache = partition._GroupLosses(instance)
    groups = [1 << j for j in range(instance.num_resources)]
    losses = [cache.loss(g) for g in groups]
    while len(groups) > k:
        best_pair, best_loss = None, np.inf
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                merged = cache.loss(groups[a] | groups[b])
                others = [losses[t] for t in range(len(groups))
                          if t not in (a, b)]
                total = max([merged] + others)
                if total < best_loss - 1e-12:
                    best_loss, best_pair = total, (a, b)
        a, b = best_pair
        groups[a] |= groups[b]
        losses[a] = cache.loss(groups[a])
        del groups[b], losses[b]
    return tuple(partition._members(g) for g in groups), losses


# structured and random density-0.5 instances for the certificate property
CERTIFICATE_INSTANCES = list(structured_instances()) + [
    formats.random_instance_doc(m, n, 0.5, s).to_instance()
    for m, n in ((12, 6), (30, 8), (20, 10)) for s in range(3)]


class TestPartitionLoss:
    def test_singleton_groups_are_lossless(self, table1):
        plan = partition.partition_loss(table1, [(0,), (1,)])
        assert plan.loss == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(plan.per_group_losses, 1.0)

    def test_single_group_reproduces_worst_case(self, table1):
        plan = partition.partition_loss(table1, [(0, 1)])
        assert plan.loss == pytest.approx(11 / 8, abs=1e-9)

    def test_ecp_balanced_pairing(self):
        ecp = partition.generate_ecp([1, 3, 2, 2], 0.1)
        # pair resources of elements {1,3} and {2,2}: indices per element
        groups = [(0, 1, 2, 3), (4, 5, 6, 7)]
        plan = partition.partition_loss(ecp.instance, groups)
        assert plan.loss == pytest.approx(2.4, abs=1e-8)

    def test_per_group_measures_are_group_row_maxima(self, table1):
        plan = partition.partition_loss(table1, [(0,), (1,)])
        norm = table1.normalized_usage
        assert np.allclose(plan.per_group_measures[0], norm[:, 0])
        assert np.allclose(plan.per_group_measures[1], norm[:, 1])

    def test_loss_is_max_of_group_losses(self):
        for seed in range(10):
            inst = random_instance(seed)
            if inst.num_resources < 2:
                continue
            groups = [(0,), tuple(range(1, inst.num_resources))]
            plan = partition.partition_loss(inst, groups)
            assert plan.loss == pytest.approx(
                plan.per_group_losses.max(), abs=1e-12)
            assert np.all(plan.per_group_losses >= 1 - 1e-9)

    def test_invalid_partitions_rejected(self, table1):
        with pytest.raises(InstanceError,
                           match="resource index 0 assigned twice"):
            partition.partition_loss(table1, [(0,), (0, 1)])
        with pytest.raises(InstanceError,
                           match="groups must cover every resource index"):
            partition.partition_loss(table1, [(0,)])
        with pytest.raises(InstanceError, match="empty group"):
            partition.partition_loss(table1, [(0, 1), ()])


class TestExactSearch:
    def test_ecp_yes_instance(self):
        ecp = partition.generate_ecp([1, 3, 2, 2], 0.1)
        plan = partition.optimal_partition_exact(ecp.instance, 2)
        assert plan.loss == pytest.approx(2.4, abs=1e-9)

    def test_ecp_no_instance(self):
        # {1,1,1,5} has no equal-sum equal-cardinality split
        ecp = partition.generate_ecp([1, 1, 1, 5], 0.1)
        plan = partition.optimal_partition_exact(ecp.instance, 2)
        assert plan.loss == pytest.approx(2.6, abs=1e-9)
        assert plan.loss > 2.4

    def test_k_equals_n_is_lossless(self):
        inst = random_instance(3)
        plan = partition.optimal_partition_exact(inst, inst.num_resources)
        assert plan.loss == pytest.approx(1.0, abs=1e-9)

    def test_table1_k1(self, table1):
        plan = partition.optimal_partition_exact(table1, 1)
        assert plan.loss == pytest.approx(11 / 8, abs=1e-9)
        assert plan.groups == ((0, 1),)

    def test_limit_enforced(self):
        doc_ops = [f"op{i}" for i in range(2)]
        res = [f"r{j}" for j in range(13)]
        usage = np.ones((2, 13))
        inst = model.instance_from_arrays(doc_ops, res, usage, np.ones(13))
        with pytest.raises(TooManyResources):
            partition.optimal_partition_exact(inst, 2)

    def test_monotone_in_k(self):
        for seed in (1, 8, 15):
            inst = random_instance(seed, max_ops=5, max_res=4)
            losses = [partition.optimal_partition_exact(inst, k).loss
                      for k in range(1, inst.num_resources + 1)]
            assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))


class TestSearchStructure:
    """The search's three shortcuts (component sums, the forced last
    block, certified bounds) against plain LPs and plain enumeration."""

    @pytest.mark.parametrize("elements, epsilon", ecp_fixtures())
    def test_matches_plain_enumeration_on_ecp_fixtures(self, elements,
                                                       epsilon):
        assert_search_matches_reference(
            partition.generate_ecp(elements, epsilon).instance)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_plain_enumeration_on_dense_random(self, seed):
        assert_search_matches_reference(
            formats.random_instance_doc(30, 10, 1.0, seed).to_instance())

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_plain_enumeration_on_sparse_random(self, seed):
        assert_search_matches_reference(
            formats.random_instance_doc(100, 10, 0.5, seed).to_instance())

    def test_disconnected_block_loss_is_the_joint_lp(self):
        rng = np.random.default_rng(5)
        disconnected = 0
        for inst in structured_instances():
            cache = partition._GroupLosses(inst)
            n = inst.num_resources
            for mask in random_masks(rng, n, 25):
                cols = partition._members(mask)
                live = mask & cache.used
                disconnected += cache._component(live) != live
                assert cache.loss(mask) == pytest.approx(
                    reference_group_loss(inst, cols), rel=1e-12)
        assert disconnected > 100

    def test_witnesses_certify_their_losses(self):
        rng = np.random.default_rng(6)
        certified = summed = 0
        for inst in structured_instances():
            cache = partition._GroupLosses(inst)
            n = inst.num_resources
            # every used singleton, and most small blocks of these sparse
            # instances, is settled by its private-operation certificate
            masks = random_masks(rng, n, 10) | {1 << j for j in range(n)}
            for mask in masks:
                live = mask & cache.used
                part = cache._component(live)
                certified += (live == mask and part == mask
                              and len(cache._private_ops(mask, np.inf))
                              == mask.bit_count())
                loss = cache.loss(mask)
                witness = cache.witness(mask)
                sub = inst.normalized_usage[:, partition._members(mask)]
                assert np.all(witness >= 0)
                assert np.all(witness @ sub <= 1 + 1e-9)
                if np.any(sub > 0):
                    assert witness @ sub.max(axis=1) == pytest.approx(
                        loss, rel=1e-9)
                if live and part != mask:
                    # a disconnected block's witness is its components'
                    # summed, in the order component, then the rest
                    rest = live ^ part
                    expected = cache.witness(part) + (
                        cache.witness(rest) if rest else 0.0)
                    assert np.array_equal(witness, expected)
                    summed += 1
        assert certified > 150
        assert summed > 50

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_private_certificate_fires_exactly_when_alpha_is_the_size(
            self, data):
        inst = data.draw(st.sampled_from(CERTIFICATE_INSTANCES))
        cache = partition._GroupLosses(inst)
        cols = data.draw(st.sets(
            st.sampled_from(partition._members(cache.used)), min_size=1))
        mask = partition._mask(cols)
        fires = len(cache._private_ops(mask, np.inf)) == len(cols)
        alpha = reference_group_loss(inst, cols)
        assert fires == (abs(alpha - len(cols)) <= 1e-12 * len(cols))
        if fires:
            assert cache.loss(mask) == len(cols)

    def test_private_count_bounds_every_block(self):
        rng = np.random.default_rng(9)
        for inst in CERTIFICATE_INSTANCES:
            cache = partition._GroupLosses(inst)
            for mask in random_masks(rng, inst.num_resources, 20):
                # a cutoff of -inf makes the scan visit every resource
                count = len(cache._private_ops(mask, -np.inf))
                assert count <= reference_group_loss(
                    inst, partition._members(mask)) * (1 + 1e-12)

    def test_certificate_bound_never_exceeds_the_lp(self):
        rng = np.random.default_rng(7)
        bounded = 0
        instances = list(structured_instances())
        instances += [formats.random_instance_doc(20, 8, d, s).to_instance()
                      for s in range(4) for d in (0.5, 1.0)]
        for inst in instances:
            cache = partition._GroupLosses(inst)
            n = inst.num_resources
            for mask in random_masks(rng, n, 40):
                cache.loss(mask)
            for mask in random_masks(rng, n, 40):
                bound = cache._bound(mask)
                bounded += bound > 0
                assert bound <= reference_group_loss(
                    inst, partition._members(mask)) * (1 + 1e-9)
        assert bounded > 100

    def test_pruned_component_leaves_its_block_unset(self, monkeypatch):
        # a disconnected block whose component is pruned returns that
        # component's bound, and only then is a block in neither entries
        # nor lower
        returned = []
        loss = partition._GroupLosses.loss

        def record(cache, mask, incumbent=np.inf):
            value = loss(cache, mask, incumbent)
            returned.append((cache, mask))
            return value

        monkeypatch.setattr(partition._GroupLosses, "loss", record)
        for inst in structured_instances():
            if inst.num_resources <= 9:
                assert_search_matches_reference(inst)
        assert any(mask not in cache.entries and mask not in cache.lower
                   for cache, mask in returned)

    def test_search_caches_only_exact_losses(self, monkeypatch):
        caches = []
        plan = partition._GroupLosses.plan

        def record(cache, masks):
            caches.append((inst, cache))
            return plan(cache, masks)

        monkeypatch.setattr(partition._GroupLosses, "plan", record)
        instances = [formats.random_instance_doc(30, 10, 1.0, s).to_instance()
                     for s in (1, 4)]
        instances += [partition.generate_ecp([1, 3, 2, 2], 1 / 16).instance]
        for inst in instances:
            for k in (2, 3):
                partition.optimal_partition_exact(inst, k)
        assert len(caches) == 6
        fresh = {}
        for inst, cache in caches:
            for mask, (loss, _) in cache.entries.items():
                if (id(inst), mask) not in fresh:
                    fresh[id(inst), mask] = reference_group_loss(
                        inst, partition._members(mask))
                assert loss == pytest.approx(fresh[id(inst), mask],
                                             rel=1e-12)

    @pytest.mark.parametrize("ops, density, seed",
                             [(30, 1.0, s) for s in (0, 1, 2, 4)]
                             + [(100, 0.5, s) for s in range(3)])
    def test_remembered_bounds_change_no_decision(self, monkeypatch,
                                                  lp_calls, ops, density,
                                                  seed):
        inst = formats.random_instance_doc(ops, 10, density,
                                           seed).to_instance()
        caches, bound_calls = [], []
        init, bound = partition._GroupLosses.__init__, \
            partition._GroupLosses._bound

        def track(self, instance):
            init(self, instance)
            caches.append(self)

        def counted(self, mask):
            bound_calls.append(mask)
            return bound(self, mask)

        monkeypatch.setattr(partition._GroupLosses, "__init__", track)
        monkeypatch.setattr(partition._GroupLosses, "_bound", counted)
        plan = partition.optimal_partition_exact(inst, 3)
        lps, bounds = len(lp_calls), len(bound_calls)
        if density == 1.0:
            assert bounds <= 1000
        cache = caches[-1]
        for mask, low in cache.lower.items():
            assert low <= reference_group_loss(
                inst, partition._members(mask)) * (1 + 1e-9)

        class Forgetful(dict):
            def __setitem__(self, mask, value):
                pass

        def forgetful(self, instance):
            init(self, instance)
            self.lower = Forgetful()

        monkeypatch.setattr(partition._GroupLosses, "__init__", forgetful)
        lp_calls.clear()
        bound_calls.clear()
        plain = partition.optimal_partition_exact(inst, 3)
        assert plain.groups == plan.groups
        assert np.array_equal(plain.per_group_losses, plan.per_group_losses)
        assert len(lp_calls) == lps
        if cache.lower:
            assert len(bound_calls) > bounds

    @pytest.mark.parametrize("k", (2, 3))
    def test_ecp_search_solves_one_lp_per_connected_block(self, lp_calls, k):
        # 6 element pairs and 12 singletons: every connected block of the
        # 12-resource reduction instance, each solved once
        ecp = partition.generate_ecp([1, 3, 2, 2, 3, 1], 1 / 24)
        plan = partition.optimal_partition_exact(ecp.instance, k)
        if k == 2:      # a yes-instance of 6 elements: 6/2 + T*eps = 3 + 6/24
            assert plan.loss == pytest.approx(3.25, rel=1e-12)
        assert len(lp_calls) <= 18

    def test_dense_search_forces_the_last_block_and_bounds(self, lp_calls):
        # one component, and only singletons have private operations, so
        # the forced last block and the bounds save the LPs: 120 with
        # both and the certificate, 131 without the certificate, 449
        # with the bounds alone, 587 with the forced block alone, 944
        # with plain enumeration
        inst = formats.random_instance_doc(30, 10, 1.0, 4).to_instance()
        partition.optimal_partition_exact(inst, 2)
        assert len(lp_calls) <= 300

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", (2, 3))
    def test_sparse_search_settles_most_blocks_by_certificate(self, lp_calls,
                                                              seed, k):
        # 12-57 LPs with the private-operation certificate, 372-544
        # without it
        inst = formats.random_instance_doc(100, 10, 0.5, seed).to_instance()
        partition.optimal_partition_exact(inst, k)
        assert len(lp_calls) <= 120


class TestGreedy:
    @pytest.mark.parametrize("n, k", ((16, 2), (16, 3), (20, 3), (24, 2)))
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_plain_greedy(self, n, k, seed):
        inst = formats.random_instance_doc(40, n, 1.0, seed).to_instance()
        plan = partition.optimal_partition_greedy(inst, k)
        groups, losses = plain_greedy(inst, k)
        assert plan.groups == groups
        assert np.allclose(plan.per_group_losses, losses, rtol=1e-12, atol=0)

    def test_merges_that_cannot_win_skip_their_lp(self, lp_calls):
        # 211 LPs with the skips, 278 without them, 552 with neither the
        # skips nor the private-operation certificate
        inst = formats.random_instance_doc(40, 24, 1.0, 1).to_instance()
        partition.optimal_partition_greedy(inst, 2)
        assert len(lp_calls) <= 250

    def test_no_merges_at_k_equals_n(self, table1):
        plan = partition.optimal_partition_greedy(table1, 2)
        assert plan.groups == ((0,), (1,))
        assert plan.loss == pytest.approx(1.0)

    def test_forced_single_group(self, table1):
        plan = partition.optimal_partition_greedy(table1, 1)
        assert plan.loss == pytest.approx(11 / 8, abs=1e-9)

    def test_never_beats_exact(self):
        rng = np.random.default_rng(2)
        cases = [partition.generate_ecp([1, 3, 2, 2], 0.1).instance]
        cases += [random_instance(s, max_ops=5, max_res=4)
                  for s in range(8)]
        for inst in cases:
            for k in (1, 2):
                if k > inst.num_resources:
                    continue
                exact = partition.optimal_partition_exact(inst, k).loss
                greedy = partition.optimal_partition_greedy(inst, k).loss
                assert greedy >= exact - 1e-9


class TestGenerateEcp:
    def test_kappa_values(self):
        ecp = partition.generate_ecp([1, 3, 2, 2], 0.1)
        expected = [0.2 / 1.1, 0.6 / 1.3, 0.4 / 1.2, 0.4 / 1.2]
        assert np.allclose(ecp.kappa, expected, rtol=1e-15)
        assert ecp.instance.num_operations == 8
        assert ecp.instance.num_resources == 8

    def test_block_diagonal_structure(self):
        ecp = partition.generate_ecp([2, 4], 0.05)
        usage = ecp.instance.usage
        for idx, kappa in enumerate(ecp.kappa):
            a, b = 2 * idx, 2 * idx + 1
            block = usage[np.ix_([a, b], [a, b])]
            assert np.allclose(block, [[1, 1 - kappa], [1 - kappa, 1]])
        mask = np.ones_like(usage, dtype=bool)
        for idx in range(2):
            mask[np.ix_([2 * idx, 2 * idx + 1],
                        [2 * idx, 2 * idx + 1])] = False
        assert np.all(usage[mask] == 0)

    def test_pair_game_closed_form(self):
        ecp = partition.generate_ecp([1, 1], 0.2)
        value = lpcore.solve_zero_sum(
            np.array([[1, 1 - ecp.kappa[0]], [1 - ecp.kappa[0], 1]])).value
        assert value == pytest.approx(1 / 1.2, abs=1e-9)
        plan = partition.optimal_partition_exact(ecp.instance, 2)
        assert plan.loss == pytest.approx(1.2, abs=1e-9)

    def test_epsilon_bound(self):
        with pytest.raises(
                InstanceError,
                match="epsilon must lie strictly between 0 and 1/8"):
            partition.generate_ecp([1, 3, 2, 2], 0.2)   # 0.2 >= 1/8
        with pytest.raises(
                InstanceError,
                match="epsilon must lie strictly between 0 and 1/8"):
            partition.generate_ecp([1, 3, 2, 2], 0.0)

    def test_odd_cardinality_and_sum(self):
        with pytest.raises(InstanceError,
                           match="an even number of elements is required"):
            partition.generate_ecp([1, 2, 3], 0.01)
        with pytest.raises(InstanceError,
                           match="the elements must have an even sum"):
            partition.generate_ecp([1, 2, 3, 1], 0.01)


class TestReduction:
    def test_yes_instances_hit_k_plus_T_epsilon(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            elements = balanced_ecp_elements(rng, 2)
            T = sum(elements) // 2
            eps = 1 / (4 * T)
            ecp = partition.generate_ecp(elements, eps)
            plan = partition.optimal_partition_exact(ecp.instance, 2)
            assert plan.loss == pytest.approx(2 + T * eps, abs=1e-8)

    def test_no_instances_separated(self):
        # odd total imbalance is impossible here, so use multisets whose
        # best equal-cardinality split misses T by at least 1
        for elements in ([1, 1, 1, 5], [1, 1, 2, 8], [2, 2, 3, 9]):
            total = sum(elements)
            T = total // 2
            eps = 1 / (4 * T)
            ecp = partition.generate_ecp(elements, eps)
            plan = partition.optimal_partition_exact(ecp.instance, 2)
            assert plan.loss > 2 + T * eps + eps - 1e-9
