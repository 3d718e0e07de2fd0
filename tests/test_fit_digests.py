"""Bytes of fit results, pinned.

``fit_result.json`` holds what a fit reports: the parameters, the SSE, the
iterations and the pass counts.  A rewrite of the residual plans, of the
solver's bookkeeping or of the simulator must leave these bytes as they
are: for the acceptance problem in both ring modes, for targets that omit
some cohorts, and for the grove fixtures' one-start fit through the command
line.  The digests were recorded with CPython 3.11 and numpy 2.4.
"""
import hashlib
from dataclasses import replace

import pytest

from fspm import FitOptions, SimConfig, fit_hidden
from fspm.cli import main
from test_calibrate import acceptance_problem, doubled_init
from test_cli import grove_pipeline  # noqa: F401  (the fixture)

ACCEPTANCE = {  # seeds 0-3 of the 8-start acceptance fit
    "uniform": ["fdc607ed7bdc41da6bf4b3ef8a9089f073987fcaa55efcd24f2295c76c0587ac",
                "f7f76cbfc351766891306c788e23b70e0c4f147087b4340a62bcf94ebac1f4eb",
                "f9b7bb3156f1e28021aad5bebff9620cd1228cbb2b99c674969bdc35e6802b13",
                "a951a0e43a98bf7ab163db1934323eaacd480caf48da69ffba1e03e421ec1f0e"],
    "pipe": ["1b7a1d439d80214f37f5694552977ad3780d82411e397dfdbd279ffe0269aba6",
             "def8fe80c723b26a405ceff13bce54179df8feedc1368a339ca10016678923c2",
             "9314a9593ebae9521380342623c1ec3cedb0d284f336ed965f02f90cd751b20e",
             "10ef964c0d40e3a59fe172fb49ec13d46c3f7cf1f65264ed912f69341c52c015"],
}
PARTIAL = {
    "uniform": "112869cf1e46c27ca5a615db6bea2ea41f7a6488abfa82c3a13b58204241be92",
    "pipe": "582873aec1d50ebfc1182d6c03907158483ca2e9d0eb9ae115288998daa2754d",
}
GROVE = {
    "uniform": "d1644b2b03cd6e0d8abe87434ae2764f6987c87dceca58c1824dffcbf23dd409",
    "pipe": "f945e780cdcc4ac4907455fc387d082edce34db8986fe49d1ac56eb72206e459",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
def test_acceptance_fits(dp3, ring_mode):
    problem = acceptance_problem(dp3, cfg=SimConfig(ring_mode=ring_mode))
    got = [digest(fit_hidden(problem, doubled_init(problem), FitOptions(seed=seed)).to_json())
           for seed in range(4)]
    assert got == ACCEPTANCE[ring_mode]


@pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
def test_fit_on_targets_that_omit_cohorts(dp3, ring_mode):
    # No target for the PA-3 cohorts born from cycle 3 on.  Blades that
    # outlive expansion (t_f = 3) split pipe-mode cohorts into ring classes,
    # so the plans hold split observed cohorts and classes without a target.
    problem = acceptance_problem(dp3, cfg=SimConfig(ring_mode=ring_mode, t_f=3))
    targets = [replace(ts, entries={(pa, ca): entry for (pa, ca), entry in ts.entries.items()
                                    if pa != 3 or ca < 3})
               for ts in problem.targets]
    problem = replace(problem, targets=targets)
    result = fit_hidden(problem, doubled_init(problem), FitOptions(seed=0))
    assert digest(result.to_json()) == PARTIAL[ring_mode]


@pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
def test_grove_fit(grove_pipeline, tmp_path, ring_mode):  # noqa: F811
    _, trees, params = grove_pipeline
    argv = ["fit", "--params", params, "--seed", 0, "--n-starts", 0, "--out", tmp_path,
            "--ring-mode", ring_mode]
    for tree, pa_map, _ in trees.values():
        argv += ["--tree", tree, "--pa-map", pa_map]
    assert main([str(arg) for arg in argv]) == 2
    assert digest((tmp_path / "fit_result.json").read_text()) == GROVE[ring_mode]
