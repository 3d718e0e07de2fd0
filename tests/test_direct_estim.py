import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fspm import (
    AxisRecord,
    DirectParams,
    GURecord,
    InternodeRecord,
    LeafRecord,
    MeasurementSet,
    TreeTopology,
    build_topology,
    estimate_direct_params,
    estimate_slw,
    fit_allometry,
    fit_sink_ratio,
    with_physio_ages,
)
from fspm.errors import (
    DegenerateSpread,
    InsufficientData,
    InvalidParameter,
    MissingPA,
    SchemaError,
    TreeMismatch,
    ValidationError,
)


def leaf(weight, area, axis="A", ca=1, idx=1):
    return LeafRecord("T", axis, ca, idx, weight, area)


class TestFitSinkRatio:
    def test_exact_proportionality(self):
        pairs = [(x, 0.5 * x) for x in (1.0, 2.0, 3.5, 8.0)]
        fit = fit_sink_ratio(pairs)
        assert fit.p == pytest.approx(0.5, abs=0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        fit = fit_sink_ratio([(1.0, 2.0), (2.0, 3.0)])
        assert fit.p == pytest.approx((1 * 2 + 2 * 3) / (1 + 4))  # = 1.6

    def test_noisy_recovery(self):
        # Generator slope at the main-stem magnitude from the field data.
        rng = np.random.default_rng(11)
        x = rng.uniform(0.5, 6.0, size=200)
        y = 0.561 * x * (1.0 + rng.normal(0.0, 0.01, size=200))
        fit = fit_sink_ratio(list(zip(x, y)))
        assert fit.p == pytest.approx(0.561, abs=0.01)

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            fit_sink_ratio([(1.0, 2.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(InsufficientData):
            fit_sink_ratio([(1.0, 2.0), (-1.0, 2.0)])

    @given(st.lists(st.tuples(st.floats(1e-200, 1e160), st.floats(1e-200, 1e160)),
                    min_size=2, max_size=12))
    def test_sums_stay_finite_or_pairs_are_rejected(self, pairs):
        # Masses whose sums would overflow, or whose sums of squares would
        # vanish, are rejected in one line: no numpy warning, no division by 0.
        top = max(max(pair) for pair in pairs)
        low = min(max(x for x, _ in pairs), max(y for _, y in pairs))
        if len(pairs) * top >= math.sqrt(sys.float_info.max):
            message = f"^{len(pairs)} pairs of masses must stay below .* g, got {re.escape(repr(top))}$"
            with pytest.raises(ValidationError, match=message):
                fit_sink_ratio(pairs)
        elif low < math.sqrt(sys.float_info.min):
            with pytest.raises(ValidationError, match=r"^the largest blade mass and the largest "
                                                      r"internode mass must reach 1\.492e-154 g, "
                                                      f"got {re.escape(repr(low))}$"):
                fit_sink_ratio(pairs)
        else:
            fit = fit_sink_ratio(pairs)
            assert fit.p > 0 and math.isfinite(fit.p) and math.isfinite(fit.r_squared)


def normal_equation_loglog(pairs):
    """Oracle: explicit 2x2 normal-equation solve in log space."""
    lx = [math.log(q) for q, _ in pairs]
    ly = [math.log(l) for _, l in pairs]
    n = len(pairs)
    sx, sy = sum(lx), sum(ly)
    sxx = sum(v * v for v in lx)
    sxy = sum(a * b for a, b in zip(lx, ly))
    det = n * sxx - sx * sx
    beta = (n * sxy - sx * sy) / det
    intercept = (sy * sxx - sx * sxy) / det
    return math.exp(intercept), beta


class TestFitAllometry:
    def test_exact_square_root_law(self):
        pairs = [(q, 2.0 * q**0.5) for q in (0.5, 1.0, 2.0, 5.0)]
        fit = fit_allometry(pairs)
        assert fit.b == pytest.approx(2.0, rel=1e-12)
        assert fit.beta == pytest.approx(0.5, rel=1e-12)

    def test_identity_law(self):
        fit = fit_allometry([(q, q) for q in (1.0, 2.0, 3.0)])
        assert fit.b == pytest.approx(1.0, rel=1e-12)
        assert fit.beta == pytest.approx(1.0, rel=1e-12)

    def test_three_points_vs_normal_equations(self):
        pairs = [(1.0, 3.0), (2.0, 5.0), (4.0, 9.0)]
        fit = fit_allometry(pairs)
        b, beta = normal_equation_loglog(pairs)
        assert fit.b == pytest.approx(b, rel=1e-12)
        assert fit.beta == pytest.approx(beta, rel=1e-12)

    @given(
        b=st.floats(5.193, 20.78),
        beta=st.floats(-0.6, 1.0),
    )
    def test_exact_power_law_recovery(self, b, beta):
        masses = (0.3, 1.0, 2.7, 6.0, 11.0)
        pairs = [(q, b * q**beta) for q in masses]
        fit = fit_allometry(pairs)
        assert fit.b == pytest.approx(b, rel=1e-10)
        assert fit.beta == pytest.approx(beta, abs=1e-10)

    def test_noisy_recovery_within_5pct(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(0.3, 12.0, size=150)
        l = 7.0 * q**0.35 * (1.0 + rng.normal(0.0, 0.01, size=150))
        fit = fit_allometry(list(zip(q, l)))
        assert fit.b == pytest.approx(7.0, rel=0.05)
        assert fit.beta == pytest.approx(0.35, rel=0.05)

    def test_degenerate_spread(self):
        with pytest.raises(DegenerateSpread):
            fit_allometry([(2.0, 3.0), (2.0, 4.0), (2.0, 5.0)])

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            fit_allometry([(1.0, 2.0), (2.0, 3.0)])


class TestEstimateSLW:
    def test_single_leaf_reference_value(self):
        assert estimate_slw([0.0287], [1.0]) == pytest.approx(0.0287)

    def test_pooled_ratio(self):
        assert estimate_slw([2.0, 4.0], [100.0, 100.0]) == pytest.approx(0.03)

    def test_pooled_not_mean_of_ratios(self):
        # ratios are 0.02 and 0.08 (mean 0.05); pooled is 6/150 = 0.04
        weights, areas = [2.0, 4.0], [100.0, 50.0]
        assert estimate_slw(weights, areas) == pytest.approx(0.04)
        mean_of_ratios = (2.0 / 100.0 + 4.0 / 50.0) / 2.0
        assert estimate_slw(weights, areas) != pytest.approx(mean_of_ratios)

    @given(c=st.floats(0.1, 50.0))
    def test_homogeneous_in_weight(self, c):
        weights, areas = [1.5, 2.5], [80.0, 120.0]
        scaled = [c * w for w in weights]
        assert estimate_slw(scaled, areas) == pytest.approx(c * estimate_slw(weights, areas))

    def test_empty(self):
        with pytest.raises(InsufficientData):
            estimate_slw([], [])

    def test_non_positive_leaf(self):
        with pytest.raises(InsufficientData, match="^leaf weight and area must be positive$"):
            estimate_slw([1.0, 2.0], [30.0, 0.0])

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            estimate_slw([1.0, 2.0], [30.0])


def four_axis_fixture():
    """Two PA-1 and two PA-2 axes with records in their top GUs, classified."""
    axes = [AxisRecord("T", "A", None, None), AxisRecord("T", "B", "A", 1),
            AxisRecord("T", "C", "A", 1), AxisRecord("T", "D", "A", 2)]
    gus = [GURecord("T", "A", 1, 2, 2), GURecord("T", "A", 2, 3, 3),
           GURecord("T", "B", 2, 2, 2), GURecord("T", "C", 2, 2, 2),
           GURecord("T", "D", 3, 2, 2)]
    t = with_physio_ages(build_topology(axes, gus), {"A": 1, "B": 2, "C": 2, "D": 1})

    def rec(axis, ca, rank, w, l):
        return InternodeRecord("T", axis, ca, rank, w, l, 5.0)

    # Top GUs: A at ca 2 (3 internodes), D at ca 3, B and C at ca 2 (2 each).
    internodes = [
        rec("A", 2, 1, 8.0, 10.3), rec("A", 2, 2, 9.0, 10.9), rec("A", 2, 3, 10.0, 11.5),
        rec("D", 3, 1, 7.0, 9.7), rec("D", 3, 2, 11.0, 12.0),
        rec("B", 2, 1, 3.0, 6.0), rec("B", 2, 2, 4.0, 7.0),
        rec("C", 2, 1, 2.5, 5.5), rec("C", 2, 2, 4.5, 7.4),
    ]
    leaves = [
        leaf(16.0, 500.0, "A", 2), leaf(18.0, 560.0, "A", 2),
        leaf(15.0, 470.0, "D", 3),
        leaf(5.0, 160.0, "B", 2), leaf(5.5, 170.0, "C", 2),
    ]
    return t, MeasurementSet(axes=axes, gus=gus, internodes=internodes, leaves=leaves)


class TestEstimateDirectParams:
    def test_small_fixture(self):
        t, ms = four_axis_fixture()
        dp, diagnostics = estimate_direct_params([(t, ms)])
        assert set(dp.p_int) == {1, 2}
        # PA1 sink pairs: (17, 9) for A and (15, 9) for D -> slope near 0.56
        expected = (17.0 * 9.0 + 15.0 * 9.0) / (17.0**2 + 15.0**2)
        assert dp.p_int[1] == pytest.approx(expected)
        assert dp.slw == pytest.approx(
            (16.0 + 18.0 + 15.0 + 5.0 + 5.5) / (500.0 + 560.0 + 470.0 + 160.0 + 170.0)
        )
        assert diagnostics[1]["sink_n"] == 2

    def test_unclassified_axis_raises_missing_pa(self):
        # Skipping the axis would drop its records from the fits unnoticed.
        t, ms = four_axis_fixture()
        axes = {**t.axes, "C": replace(t.axes["C"], pa=None)}
        partly = TreeTopology(t.tree_id, t.age, axes)
        with pytest.raises(MissingPA, match="^tree 'T': axis 'C' has no PA"):
            estimate_direct_params([(partly, ms)])

    def test_tree_given_twice_raises(self):
        # Pooled twice, its samples would weigh double in every fit.
        t, ms = four_axis_fixture()
        with pytest.raises(ValidationError, match="^tree 'T' is given more than once$"):
            estimate_direct_params([(t, ms), (t, ms)])

    def test_record_of_another_tree_raises_tree_mismatch(self):
        t, ms = four_axis_fixture()
        ms.leaves.append(leaf(5.0, 160.0, "B", 2)._replace(tree_id="U"))
        with pytest.raises(TreeMismatch, match=r"^tree 'T': record \('B', ca 2\) is of tree 'U'$"):
            estimate_direct_params([(t, ms)])

    @pytest.mark.parametrize("table", ["internodes", "leaves"])
    def test_record_on_a_missing_gu_raises(self, table):
        # B's GUs start at cycle 2; dropping this record would go unnoticed.
        t, ms = four_axis_fixture()
        records = getattr(ms, table)
        records.append(records[-1]._replace(axis_id="B", gu_ca=1))
        with pytest.raises(ValidationError, match=r"^tree 'T': record references unknown GU \('B', ca 1\)$"):
            estimate_direct_params([(t, ms)])

    def test_top_gu_without_internode_samples_warns(self, caplog):
        # E's top GU has no records: it leaves the sink and allometry fits
        # as it would if E were not there, and the log names it.
        t, ms = four_axis_fixture()
        axes = ms.axes + [AxisRecord("T", "E", "A", 1)]
        gus = ms.gus + [GURecord("T", "E", 2, 2, 2)]
        pa = {axis.id: axis.pa for axis in t.axes.values()}
        wide = with_physio_ages(build_topology(axes, gus), {**pa, "E": 2})
        with caplog.at_level("WARNING", logger="fspm.direct_estim"):
            got = estimate_direct_params([(wide, ms)])
        assert [r.getMessage() for r in caplog.records] == [
            "tree T axis E top GU has no internode samples; "
            "skipped for sink and allometry fits"
        ]
        assert got == estimate_direct_params([(t, ms)])

    @pytest.mark.parametrize("keep, error, message", [
        # C's top GU loses its internodes: one PA 2 sink pair is left.
        (lambda r: r.axis_id != "C", InsufficientData, "PA 2 sink ratio: need >= 2 pairs, got 1"),
        # B and C keep one internode each: two PA 2 allometry pairs.
        (lambda r: r.rank_in_gu == 1 or r.axis_id not in "BC", InsufficientData,
         "PA 2 allometry: need >= 3 pairs, got 2"),
    ])
    def test_fit_errors_name_the_pa_and_the_fit(self, keep, error, message):
        t, ms = four_axis_fixture()
        ms.internodes = [r for r in ms.internodes if keep(r)]
        with pytest.raises(error, match=f"^{message}$"):
            estimate_direct_params([(t, ms)])

    def test_allometry_without_spread_names_the_pa(self):
        t, ms = four_axis_fixture()
        ms.internodes = [r._replace(fresh_weight=3.0) if r.axis_id in "BC" else r
                         for r in ms.internodes]
        with pytest.raises(DegenerateSpread,
                           match="^PA 2 allometry: all masses equal; beta is not identifiable$"):
            estimate_direct_params([(t, ms)])

    def test_roundtrip_json(self):
        dp = DirectParams(
            p_int={1: 0.561, 2: 0.726},
            allometry={1: (5.193, 0.3), 2: (7.229, -0.2)},
            slw=0.0287,
        )
        again = DirectParams.from_json(dp.to_json())
        assert again == dp

    @pytest.mark.parametrize("text, message", [
        ('{"p_int": {"1": 0.5}', "dp.json: not valid JSON"),
        ('{"p_int": {"1": 0.5}, "slw": 0.03}', "dp.json: missing key 'allometry'"),
        ('{"p_int": {"1": 0.5}, "allometry": {"1": {"b": 5.0}}, "slw": 0.03}',
         "dp.json: missing key 'beta'"),
        ('{"p_int": {"1": "heavy"}, "allometry": {}, "slw": 0.03}', "dp.json: "),
        ('{"p_int": {}, "allometry": {}, "slw": -1}', "dp.json: slw must be > 0"),
    ])
    def test_malformed_json_raises_schema_error(self, text, message):
        with pytest.raises(SchemaError, match=message):
            DirectParams.from_json(text, "dp.json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("field, make", [
        ("slw", lambda v: dict(slw=v)),
        ("sink for PA 1", lambda v: dict(p_int={1: v})),
        ("allometry b for PA 1", lambda v: dict(allometry={1: (v, 0.3)})),
    ])
    def test_non_finite_or_non_positive_rejected(self, field, make, bad):
        kwargs = dict(p_int={1: 0.5}, allometry={1: (5.0, 0.3)}, slw=0.03)
        with pytest.raises(InvalidParameter, match=f"{field} must be > 0 and finite"):
            DirectParams(**{**kwargs, **make(bad)})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, bad):
        with pytest.raises(InvalidParameter, match="beta for PA 2 must be finite"):
            DirectParams(p_int={}, allometry={2: (5.0, bad)}, slw=0.03)

    def test_nan_slw_in_file_raises_schema_error(self):
        text = '{"p_int": {"1": 0.5}, "allometry": {"1": {"b": 5.0, "beta": 0.3}}, "slw": NaN}'
        with pytest.raises(SchemaError, match="dp.json: slw must be > 0 and finite, got nan"):
            DirectParams.from_json(text, "dp.json")

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "direct_params.json"
        path.write_text("{}")
        with pytest.raises(SchemaError, match=f"{path}: missing key 'p_int'"):
            DirectParams.load(path)
