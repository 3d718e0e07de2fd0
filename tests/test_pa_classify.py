from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fspm import (
    AxisRecord,
    GURecord,
    InternodeRecord,
    assign_pa,
    build_topology,
    classify_axes,
    cluster_1d,
    top_internode_weight,
)
from fspm.errors import (KTooLarge, MainAxisNotHeaviest, NoTerminalData, TreeMismatch,
                         ValidationError)
from fspm.pa_classify import _BLOCK


def brute_force_wcss(values, k):
    """Independent oracle: enumerate every contiguous k-partition."""
    xs = sorted(values)
    best = float("inf")
    for splits in combinations(range(1, len(xs)), k - 1):
        bounds = (0, *splits, len(xs))
        cost = 0.0
        for a, b in zip(bounds, bounds[1:]):
            seg = xs[a:b]
            mean = sum(seg) / len(seg)
            cost += sum((x - mean) * (x - mean) for x in seg)
        best = min(best, cost)
    return best


def scalar_dp_partition(values, k):
    """Independent oracle: the O(k*n^2) suffix DP in scalar Python.

    The cell-by-cell form cluster_1d computed before its rows became array
    expressions; the tie rule and the order of every float operation are the
    same, so the two must agree exactly.
    """
    items = sorted(enumerate(values), key=lambda kv: (kv[1], kv[0]))
    n = len(items)
    xs = [w for _, w in items]
    ps = [0.0] * (n + 1)
    pq = [0.0] * (n + 1)
    for i, x in enumerate(xs):
        ps[i + 1] = ps[i] + x
        pq[i + 1] = pq[i] + x * x

    def cost(i, j):
        s = ps[j + 1] - ps[i]
        return pq[j + 1] - pq[i] - s * s / (j - i + 1)

    inf = float("inf")
    suffix = [[inf] * (n + 1) for _ in range(k + 1)]
    suffix[0][n] = 0.0
    for j in range(1, k + 1):
        for i in range(n - j, -1, -1):
            best = inf
            for end in range(i, n - j + 1):
                c = cost(i, end) + suffix[j - 1][end + 1]
                if c < best:
                    best = c
            suffix[j][i] = best
    segments = []
    i = 0
    for j in range(k, 0, -1):
        for end in range(i, n - j + 1):
            if cost(i, end) + suffix[j - 1][end + 1] == suffix[j][i]:
                segments.append((i, end))
                i = end + 1
                break
    assignments, means, boundaries, wcss = {}, [], [], 0.0
    for c, (lo, hi) in enumerate(segments):
        seg = xs[lo : hi + 1]
        for key, _ in items[lo : hi + 1]:
            assignments[key] = c
        mean = sum(seg) / len(seg)
        means.append(mean)
        wcss += sum((x - mean) * (x - mean) for x in seg)
        if c + 1 < len(segments):
            boundaries.append((xs[hi] + xs[hi + 1]) / 2.0)
    return assignments, tuple(boundaries), tuple(means), wcss


def assert_same_partition(values, k):
    part = cluster_1d(values, k)
    assignments, boundaries, means, wcss = scalar_dp_partition(values, k)
    assert part.assignments == assignments
    assert part.boundaries == boundaries
    assert part.means == means
    assert part.wcss == wcss


def per_cell_partition(values, k):
    """Oracle: cluster_1d as it was before its DP rows went by blocks of
    starts, one numpy expression per (clusters, start) cell, copied unchanged
    but for returning the partition's fields."""
    items = sorted(enumerate(values), key=lambda kv: (kv[1], kv[0]))
    n = len(items)
    xs = [w for _, w in items]
    x = np.asarray(xs, dtype=float)

    ps = np.cumsum(np.concatenate(([0.0], x)))
    pq = np.cumsum(np.concatenate(([0.0], x * x)))
    sizes = np.arange(1, n + 1)
    suffix = np.full((k + 1, n + 1), np.inf)
    suffix[0, n] = 0.0

    def split_costs(j, i):
        stop = n - j + 2
        s = ps[i + 1 : stop] - ps[i]
        cost = pq[i + 1 : stop] - pq[i] - s * s / sizes[: stop - i - 1]
        return cost + suffix[j - 1, i + 1 : stop]

    for j in range(1, k + 1):
        for i in range(n - j + 1):
            suffix[j, i] = split_costs(j, i).min()

    segments = []
    i = 0
    for j in range(k, 0, -1):
        end = i + int(np.argmax(split_costs(j, i) == suffix[j, i]))
        segments.append((i, end))
        i = end + 1

    assignments, means, boundaries, wcss = {}, [], [], 0.0
    for c, (lo, hi) in enumerate(segments):
        for key, _ in items[lo : hi + 1]:
            assignments[key] = c
        means.append(sum(xs[lo : hi + 1]) / (hi - lo + 1))
        seg = xs[lo : hi + 1]
        mean = sum(seg) / len(seg)
        wcss += sum(d * d for d in (v - mean for v in seg))
        if c + 1 < len(segments):
            boundaries.append((xs[hi] + xs[hi + 1]) / 2.0)
    return assignments, tuple(boundaries), tuple(means), wcss


@st.composite
def block_sized_values(draw):
    """n at and around the DP block size; values drawn from a small pool,
    so they tie, with some rounded to one decimal; k up to the number of
    distinct values."""
    n = draw(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
    weight = st.floats(0.01, 100.0)
    pool = draw(st.lists(st.one_of(weight, weight.map(lambda w: round(w, 1) or 0.1)),
                         min_size=1, max_size=24))
    xs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return xs, draw(st.integers(1, len(set(xs))))


def internode(axis_id, ca, rank, weight):
    return InternodeRecord("T", axis_id, ca, rank, weight, 5.0, 4.0)


def tree_with_axes(layout):
    """layout: {axis_id: (parent, insertion_ca, [ca...])}"""
    axes = [AxisRecord("T", aid, parent, ins) for aid, (parent, ins, _) in layout.items()]
    gus = [
        GURecord("T", aid, ca, 2, 2)
        for aid, (_, _, cas) in layout.items()
        for ca in cas
    ]
    return build_topology(axes, gus)


class TestTopInternodeWeight:
    def test_mean_of_last_gu(self):
        t = tree_with_axes({"A": (None, None, [1, 2])})
        records = [internode("A", 2, 1, 2.0), internode("A", 2, 2, 4.0),
                   internode("A", 1, 1, 9.0)]
        assert top_internode_weight(t, records) == {"A": 3.0}

    def test_single_gu_axis(self):
        t = tree_with_axes({"A": (None, None, [1])})
        records = [internode("A", 1, 1, 7.5)]
        assert top_internode_weight(t, records) == {"A": 7.5}

    def test_four_axis_hand_walk(self):
        t = tree_with_axes({
            "A": (None, None, [1, 2, 3]),
            "B": ("A", 1, [2, 3]),
            "C": ("A", 2, [3]),
            "D": ("B", 2, [3]),
        })
        records = [
            internode("A", 3, 1, 10.0), internode("A", 3, 2, 12.0),
            internode("B", 3, 1, 4.0),
            internode("C", 3, 1, 1.0), internode("C", 3, 2, 2.0),
            internode("D", 3, 1, 6.0),
        ]
        assert top_internode_weight(t, records) == {
            "A": 11.0, "B": 4.0, "C": 1.5, "D": 6.0,
        }

    def test_no_terminal_data(self):
        t = tree_with_axes({"A": (None, None, [1, 2])})
        with pytest.raises(NoTerminalData):
            top_internode_weight(t, [internode("A", 1, 1, 3.0)])

    def test_record_of_another_tree_raises_tree_mismatch(self):
        # Pooled, U's 9.0 g internode would lift A's top weight to 6.0 g.
        t = tree_with_axes({"A": (None, None, [1])})
        records = [internode("A", 1, 1, 3.0), internode("A", 1, 2, 9.0)._replace(tree_id="U")]
        with pytest.raises(TreeMismatch, match=r"^tree 'T': record \('A', ca 1\) is of tree 'U'$"):
            top_internode_weight(t, records)

    def test_record_on_a_missing_gu_raises(self):
        t = tree_with_axes({"A": (None, None, [1])})
        records = [internode("A", 1, 1, 3.0), internode("B", 1, 1, 9.0)]
        with pytest.raises(ValidationError, match=r"^tree 'T': record references unknown GU \('B', ca 1\)$"):
            top_internode_weight(t, records)


class TestCluster1D:
    def test_well_separated_pairs(self):
        part = cluster_1d([1.0, 1.1, 5.0, 5.2], 2)
        assert part.assignments == {0: 0, 1: 0, 2: 1, 3: 1}
        assert part.means == (pytest.approx(1.05), pytest.approx(5.1))

    def test_frozen_example(self):
        part = cluster_1d([0.0, 1.0, 2.0, 4.0, 8.0], 2)
        assert part.wcss == 8.75  # brute force over all 4 contiguous splits
        assert part.assignments == {0: 0, 1: 0, 2: 0, 3: 0, 4: 1}
        assert part.boundaries == (6.0,)  # midpoint between 4 and 8

    def test_tie_breaks_to_smallest_leading_cluster(self):
        # {0}|{2,4} and {0,2}|{4} both cost 2; the first cluster stays smallest.
        part = cluster_1d([0.0, 2.0, 4.0], 2)
        assert part.assignments == {0: 0, 1: 1, 2: 1}

    def test_k1_is_total_variance(self):
        xs = [3.0, 1.0, 4.0, 1.5]
        part = cluster_1d(xs, 1)
        mean = sum(xs) / len(xs)
        assert part.wcss == pytest.approx(sum((x - mean) * (x - mean) for x in xs))
        assert part.k == 1

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            cluster_1d([1.0, 1.0, 2.0], 3)

    def test_mapping_input_keeps_ids(self):
        part = cluster_1d({"x": 9.0, "y": 1.0, "z": 8.5}, 2)
        assert part.assignments == {"y": 0, "x": 1, "z": 1}

    def test_matches_brute_force_seeded(self):
        import random

        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(2, 12)
            xs = [rng.uniform(0.1, 10.0) for _ in range(n)]
            for k in range(1, min(4, n) + 1):
                assert cluster_1d(xs, k).wcss == brute_force_wcss(xs, k)

    def test_equals_scalar_dp_on_tied_integers(self):
        # Integers, and integers times 0.1, whose float sums make near-ties
        # that any change in the order of operations decides differently.
        import random

        rng = random.Random(7)
        for _ in range(400):
            n = rng.randint(1, 40)
            top, scale = rng.choice((3, 8, 40)), rng.choice((1, 0.1))
            xs = [rng.randint(0, top) * scale for _ in range(n)]
            assert_same_partition(xs, rng.randint(1, min(6, len(set(xs)))))

    def test_equals_scalar_dp_at_measured_scale(self):
        import random

        rng = random.Random(835)
        xs = [rng.lognormvariate(0.0, 1.0) for _ in range(835)]
        assert_same_partition(xs, 4)

    @given(block_sized_values())
    def test_equals_per_cell_dp_around_the_block_size(self, case):
        xs, k = case
        part = cluster_1d(xs, k)
        assignments, boundaries, means, wcss = per_cell_partition(xs, k)
        assert part.assignments == assignments
        assert repr(part.boundaries) == repr(boundaries)
        assert repr(part.means) == repr(means)
        assert np.float64(part.wcss).tobytes() == np.float64(wcss).tobytes()

    def test_equals_per_cell_dp_at_measured_scale(self):
        import random

        rng = random.Random(835)
        xs = [round(rng.lognormvariate(0.0, 1.0), 2) for _ in range(835)]
        for k in (1, 4, 9):
            part = cluster_1d(xs, k)
            assert (part.assignments, part.boundaries, part.means, part.wcss) == \
                per_cell_partition(xs, k)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            cluster_1d([1.0, bad, 3.0], 2)

    @pytest.mark.parametrize("xs, message", [
        ([1e160, 2e160, 3e160, 9e160], "4 values to cluster must stay below 3.352e+153 "
                                       "in magnitude, got 9e+160"),
        ([1.0, -1e154], "2 values to cluster must stay below 6.704e+153 in magnitude, "
                        "got 1e+154"),
    ])
    def test_values_whose_squares_overflow_rejected(self, xs, message):
        # Rejected before any sum: RuntimeWarnings fail this suite.
        with pytest.raises(ValidationError) as info:
            cluster_1d(xs, 2)
        assert type(info.value) is ValidationError
        assert str(info.value) == message

    def test_values_just_below_the_overflow_bound_stay_exact(self):
        xs = [3.3e153, 1.0, 2.0, 3.2e153]
        part = cluster_1d(xs, 2)
        assert part.assignments == {1: 0, 2: 0, 3: 1, 0: 1}
        found = (part.assignments, part.boundaries, part.means, part.wcss)
        assert found == per_cell_partition(xs, 2) == scalar_dp_partition(xs, 2)

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=10, unique=True),
        st.integers(1, 4),
    )
    def test_matches_brute_force_property(self, xs, k):
        if k > len(xs):
            k = len(xs)
        assert cluster_1d(xs, k).wcss == brute_force_wcss(xs, k)

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=3, max_size=8, unique=True),
        st.sampled_from([0.25, 0.5, 2.0, 4.0, 7.0]),
    )
    # A squared deviation written ``** 2`` goes through libm pow, which is
    # not correctly rounded for every input; this one broke exact scaling.
    @example(xs=[26.0, 12.880009080195572, 0.01], c=0.25)
    def test_scale_invariance(self, xs, c):
        base = cluster_1d(xs, 2)
        scaled = cluster_1d([c * x for x in xs], 2)
        assert scaled.assignments == base.assignments
        if c in (0.25, 0.5, 2.0, 4.0):  # power-of-two scaling is float-exact
            assert scaled.wcss == c * c * base.wcss
        else:
            assert scaled.wcss == pytest.approx(c * c * base.wcss, rel=1e-12)

    def test_wcss_nonincreasing_in_k(self):
        import random

        rng = random.Random(3)
        xs = [rng.uniform(0.1, 10.0) for _ in range(10)]
        costs = [cluster_1d(xs, k).wcss for k in range(1, 6)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


class TestAssignPA:
    def test_heavy_cluster_is_pa1(self):
        part = cluster_1d({"main": 10.0, "m2": 10.5, "b1": 2.0, "b2": 2.2}, 2)
        pa = assign_pa(part, "main")
        assert pa == {"main": 1, "m2": 1, "b1": 2, "b2": 2}

    def test_k1_all_pa1(self):
        part = cluster_1d({"main": 5.0, "b": 6.0}, 1)
        assert assign_pa(part, "main") == {"main": 1, "b": 1}

    def test_three_clusters_descending(self):
        part = cluster_1d({"a": 8.0, "b": 3.0, "c": 1.0}, 3)
        assert assign_pa(part, "a") == {"a": 1, "b": 2, "c": 3}

    def test_means_strictly_decrease_with_pa(self):
        part = cluster_1d({"a": 8.0, "a2": 8.4, "b": 3.0, "c": 1.0, "c2": 0.8}, 3)
        pa = assign_pa(part, "a2")
        by_pa = {}
        weights = {"a": 8.0, "a2": 8.4, "b": 3.0, "c": 1.0, "c2": 0.8}
        for key, label in pa.items():
            by_pa.setdefault(label, []).append(weights[key])
        means = [sum(v) / len(v) for _, v in sorted(by_pa.items())]
        assert all(m1 > m2 for m1, m2 in zip(means, means[1:]))

    def test_main_axis_not_heaviest(self):
        part = cluster_1d({"main": 2.0, "big": 10.0}, 2)
        with pytest.raises(MainAxisNotHeaviest):
            assign_pa(part, "main")


class TestClassifyAxes:
    def test_end_to_end(self):
        t = tree_with_axes({
            "A": (None, None, [1, 2, 3]),
            "B": ("A", 1, [2, 3]),
            "C": ("A", 2, [3]),
        })
        records = [
            internode("A", 3, 1, 10.0),
            internode("B", 3, 1, 4.2),
            internode("C", 3, 1, 1.4),
        ]
        pa_map, part = classify_axes(t, records, 3)
        assert pa_map == {"A": 1, "B": 2, "C": 3}
        assert part.k == 3

    def test_k_reduced_for_small_trees(self):
        t = tree_with_axes({"A": (None, None, [1]), "B": ("A", 1, [2])})
        records = [internode("A", 1, 1, 10.0), internode("B", 2, 1, 2.0)]
        pa_map, part = classify_axes(t, records, 5)
        assert part.k == 2
        assert pa_map == {"A": 1, "B": 2}
