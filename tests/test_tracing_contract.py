"""The benchmark tracer wraps fspm functions by name: they must all exist,
and the counts it reads off their results must still be there.

``benchmarks/tracing.py`` is read as it stands, never edited.  A refactor
that drops or renames a function it traces, or a field its info callbacks
read, would otherwise end a traced benchmark run in an ``AttributeError``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from fspm import (
    DirectParams,
    GrowthRules,
    HiddenParams,
    SimConfig,
    analytic_organ_count,
    cohort_counts,
    generate_topology,
    simulate,
    targets_from_trace,
)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_fspm_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in tracing.FUNCTIONS.items() for name in names
])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"fspm.{module}"), name))


@pytest.mark.parametrize("module, cls, method, _span", tracing.METHODS)
def test_traced_method_exists(module, cls, method, _span):
    # The tracer swaps the attribute in the class's own namespace.
    assert callable(vars(getattr(importlib.import_module(f"fspm.{module}"), cls))[method])


def test_cli_entry_point_exists():
    assert callable(importlib.import_module("fspm.cli").main)


DATA = Path(__file__).resolve().parent / "data" / "single"


def _data_rows(name):
    return len((DATA / name).read_text(encoding="utf-8").splitlines()) - 1


@pytest.fixture(scope="module")
def examples():
    """Real calls of every function the tracer takes a count from.

    Maps (module, function) to a list of (args, kwargs, expected count).
    """
    dp = DirectParams(p_int={1: 0.561, 2: 0.726, 3: 0.858},
                      allometry={1: (5.0, 0.3), 2: (7.0, 0.35), 3: (9.0, 0.4)}, slw=0.0287)
    hp = HiddenParams(q0=10.0, rp=6.4319, pc=0.13882)
    rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
    t = generate_topology(rules, 4, "T")
    n = t.total_internodes()
    pipe = simulate(hp, dp, t, SimConfig(ring_mode="pipe"))
    files = ("axes.csv", "gus.csv", "internodes.csv", "leaves.csv")
    weights = [1.0, 1.2, 5.0, 5.5, 9.0]
    return {
        ("ingest", "parse_measurements"): [
            ([DATA / f for f in files], {}, sum(map(_data_rows, files))),
        ],
        ("pa_classify", "cluster_1d"): [
            ([weights, 3], {}, 5), ([dict(zip("abcde", weights))], {"k": 2}, 5),
        ],
        ("engine", "simulate"): [
            ([hp, dp, t, SimConfig(ring_mode="pipe")], {}, ["T", n]),
            ([hp, dp, t], {"cfg": SimConfig(), "cycles": 2},
             ["T", sum(gu.internode_count for _, gu in t.iter_gus() if gu.ca <= 2)]),
        ],
        ("engine", "simulate_factored"): [
            ([hp, dp, rules, 6], {},
             [len(cohort_counts(rules, 6)), analytic_organ_count(rules, 6)]),
        ],
        ("export", "export_skeleton"): [([pipe, t, 7], {}, n)],
        ("export", "export_trace_csv"): [([pipe], {}, None)],
        ("export", "export_organs_csv"): [([pipe], {}, None)],
        ("export", "export_fit_csv"): [([pipe, targets_from_trace(pipe, dp)], {}, None)],
    }


@pytest.mark.parametrize("module, name, info", [
    (module, name, info) for module, names in tracing.FUNCTIONS.items()
    for name, info in names.items() if info is not None
])
def test_info_reads_a_real_result(examples, module, name, info):
    # A field the tracer reads off a result (len(organs), n_blades, ...)
    # must still be there; None as the expected count means the CSV's size.
    fn = getattr(importlib.import_module(f"fspm.{module}"), name)
    for args, kwargs, expected in examples[(module, name)]:
        out = fn(*args, **kwargs)
        got = info(args, kwargs, out)
        if expected is None:
            texts = out.values() if isinstance(out, dict) else [out]
            expected = sum(len(text) for text in texts)
        assert got == expected


@pytest.mark.parametrize("args, kwargs, label", [
    ((None, None, None), {}, "engine.simulate.uniform"),
    ((None, None, None, SimConfig(ring_mode="pipe")), {}, "engine.simulate.pipe"),
    ((None, None, None), {"cfg": SimConfig(ring_mode="pipe")}, "engine.simulate.pipe"),
])
def test_simulate_label_reads_the_ring_mode(args, kwargs, label):
    assert tracing._sim_label(args, kwargs) == label
