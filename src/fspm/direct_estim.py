"""Directly measurable parameters: organ sinks, shape allometry, leaf weight.

Three estimators, each a closed-form regression on organ-level field data:

* internode sink per physiological age, the slope of internode mass against
  blade mass through the origin (blade sink is the reference, 1);
* internode shape coefficients (b, beta) of the power law
  ``length = b * mass**beta``, fitted by ordinary least squares in log-log
  space;
* specific leaf weight, the pooled mass/area ratio over every sampled blade
  (a single constant for all trees, not a mean of per-leaf ratios).
"""
from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateSpread,
    InsufficientData,
    InvalidParameter,
    MissingPA,
    ValidationError,
    _given_once,
    _json_number,
    read_text,
    schema_errors,
)
from .ingest import MeasurementSet, samples_by_gu
from .pa_classify import _SQRT_FLOAT_MAX
from .topology import TreeTopology

logger = logging.getLogger(__name__)

_SQRT_FLOAT_TINY = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class SinkFit:
    p: float
    r_squared: float


@dataclass(frozen=True)
class AllometryFit:
    b: float
    beta: float
    r_squared: float


@dataclass(frozen=True)
class DirectParams:
    """Measured-side model parameters, keyed by physiological age."""

    p_int: Mapping[int, float]
    allometry: Mapping[int, tuple[float, float]]
    slw: float

    def __post_init__(self) -> None:
        def positive(name: str, value: float) -> None:
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameter(f"{name} must be > 0 and finite, got {value}")

        positive("slw", self.slw)
        for pa, p in self.p_int.items():
            positive(f"sink for PA {pa}", p)
        for pa, (b, beta) in self.allometry.items():
            positive(f"allometry b for PA {pa}", b)
            if not math.isfinite(beta):
                raise InvalidParameter(
                    f"allometry beta for PA {pa} must be finite, got {beta}"
                )

    def sink(self, pa: int) -> float:
        try:
            return self.p_int[pa]
        except KeyError:
            raise ValidationError(f"no internode sink for PA {pa}") from None

    def shape(self, pa: int) -> tuple[float, float]:
        try:
            return self.allometry[pa]
        except KeyError:
            raise ValidationError(f"no allometry coefficients for PA {pa}") from None

    def to_json(self) -> str:
        doc = {
            "p_int": {str(pa): v for pa, v in sorted(self.p_int.items())},
            "allometry": {
                str(pa): {"b": b, "beta": beta}
                for pa, (b, beta) in sorted(self.allometry.items())
            },
            "slw": self.slw,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, source: str = "direct parameters") -> "DirectParams":
        """Parse :meth:`to_json` output; ``source`` names the input in errors.

        Raises:
            SchemaError: the text is not JSON, lacks a key, or holds a value
                of the wrong type or range.
        """
        with schema_errors(source):
            doc = json.loads(text)
            return cls(
                p_int={int(k): _json_number(v, f"p_int[{k!r}]")
                       for k, v in doc["p_int"].items()},
                allometry={
                    int(k): (_json_number(v["b"], f"allometry[{k!r}].b"),
                             _json_number(v["beta"], f"allometry[{k!r}].beta"))
                    for k, v in doc["allometry"].items()
                },
                slw=_json_number(doc["slw"], "slw"),
            )

    @classmethod
    def load(cls, path: str | Path) -> "DirectParams":
        return cls.from_json(read_text(path), str(path))


def fit_sink_ratio(pairs: Sequence[tuple[float, float]]) -> SinkFit:
    """Slope of internode mass on blade mass through the origin.

    ``pairs`` are (blade_mass, internode_mass) in grams.  The slope is
    sum(x*y) / sum(x^2); R^2 is the uncentered coefficient appropriate for a
    no-intercept fit.  As :func:`~fspm.pa_classify.cluster_1d` requires of
    its values, n * the largest mass must stay below sqrt(float max) (about
    1.34e154), so that no sum of the regression overflows; and the largest
    blade mass and the largest internode mass must each reach the square
    root of the smallest normal float (about 1.49e-154), so that no sum of
    squares vanishes.
    """
    if len(pairs) < 2:
        raise InsufficientData(f"need >= 2 pairs, got {len(pairs)}")
    x = np.asarray([p[0] for p in pairs], dtype=float)
    y = np.asarray([p[1] for p in pairs], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise InsufficientData("all masses must be positive")
    # Bounds sum(x*y), sum(x^2) and sum(y^2), and so the residual sum, by float max.
    top = float(max(x.max(), y.max()))
    if len(pairs) * top >= _SQRT_FLOAT_MAX:
        raise ValidationError(f"{len(pairs)} pairs of masses must stay below "
                              f"{_SQRT_FLOAT_MAX / len(pairs):.4g} g, got {top!r}")
    # Keeps sum(x^2) and sum(y^2) normal, so the slope and R^2 are finite.
    low = float(min(x.max(), y.max()))
    if low < _SQRT_FLOAT_TINY:
        raise ValidationError(f"the largest blade mass and the largest internode mass "
                              f"must reach {_SQRT_FLOAT_TINY:.4g} g, got {low!r}")
    slope = float(np.dot(x, y) / np.dot(x, x))
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum(y**2))
    return SinkFit(p=slope, r_squared=1.0 - ss_res / ss_tot)


def fit_allometry(pairs: Sequence[tuple[float, float]]) -> AllometryFit:
    """Fit ``length = b * mass**beta`` by OLS on (ln mass, ln length).

    ``pairs`` are (mass_g, length_cm), all positive.
    """
    if len(pairs) < 3:
        raise InsufficientData(f"need >= 3 pairs, got {len(pairs)}")
    q = np.asarray([p[0] for p in pairs], dtype=float)
    l = np.asarray([p[1] for p in pairs], dtype=float)
    if np.any(q <= 0) or np.any(l <= 0):
        raise InsufficientData("all masses and lengths must be positive")
    if np.ptp(q) == 0:
        raise DegenerateSpread("all masses equal; beta is not identifiable")
    lx = np.log(q)
    ly = np.log(l)
    design = np.column_stack([np.ones_like(lx), lx])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    intercept, beta = float(coef[0]), float(coef[1])
    fitted = design @ coef
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return AllometryFit(b=math.exp(intercept), beta=beta, r_squared=r2)


def estimate_slw(weights: Iterable[float], areas: Iterable[float]) -> float:
    """Pooled specific leaf weight, total mass over total area (g/cm^2).

    ``weights`` (g) and ``areas`` (cm^2) are the blades' columns, one
    value per blade in the same order.
    """
    total_w = 0.0
    total_a = 0.0
    n = 0
    for weight, area in zip(weights, areas, strict=True):
        if area <= 0 or weight <= 0:
            raise InsufficientData("leaf weight and area must be positive")
        total_w += weight
        total_a += area
        n += 1
    if n < 1:
        raise InsufficientData("no leaf records")
    return total_w / total_a


def estimate_direct_params(
    trees: Sequence[tuple[TreeTopology, MeasurementSet]],
) -> tuple[DirectParams, dict[int, dict[str, float]]]:
    """Assemble DirectParams from classified trees and their measurements.

    Each topology's axes carry their PA (see :func:`with_physio_ages`); an
    axis without one raises MissingPA.  Each tree's rows are attached to
    its GUs by :func:`~fspm.ingest.samples_by_gu`: a record of another tree
    raises TreeMismatch, one on a GU the tree lacks ValidationError.
    Rows from every tree are pooled per PA (a single tree carries only
    one main stem, so the sink regression for PA 1 usually needs several
    trees).  Sink and allometry use the new growth at the top of each axis:
    per PA, sink pairs are the (mean sampled blade mass, mean internode
    mass) of each axis's topmost GU, allometry pairs the (mass, length) of
    every internode row in those GUs; an axis whose top GU lacks
    internode or leaf samples leaves the fits it cannot feed, with a
    warning.  SLW pools every leaf.  A fit that cannot be made raises its
    error with the PA and the fit named (``PA 1 sink ratio: need >= 2
    pairs, got 1``).  A tree given more than once raises ValidationError,
    as :class:`~fspm.calibrate.FitProblem` does.  Also returns per-PA fit
    diagnostics (r_squared, n observations).
    """
    _given_once([topology.tree_id for topology, _ in trees])
    sink_pairs: dict[int, list[tuple[float, float]]] = {}
    allo_pairs: dict[int, list[tuple[float, float]]] = {}
    leaf_weights: list[float] = []
    leaf_areas: list[float] = []
    for topology, ms in trees:
        samples = samples_by_gu(topology, ms.internodes, ms.leaves)
        inter_w, inter_l = samples.internodes["fresh_weight"], samples.internodes["length"]
        blade_w = samples.leaves["fresh_weight"]
        for axis, inter_rows, leaf_rows in samples.top_gus(topology):
            if axis.pa is None:
                raise MissingPA(f"tree {topology.tree_id!r}: axis {axis.id!r} has no PA; "
                                "classify first")
            n_inter = inter_rows.stop - inter_rows.start
            if not n_inter:
                logger.warning(
                    "tree %s axis %s top GU has no internode samples; skipped for sink "
                    "and allometry fits", topology.tree_id, axis.id,
                )
                continue
            allo_pairs.setdefault(axis.pa, []).extend(
                zip(inter_w[inter_rows], inter_l[inter_rows]))
            n_leaf = leaf_rows.stop - leaf_rows.start
            if n_leaf:
                blade = sum(blade_w[leaf_rows]) / n_leaf
                inter = sum(inter_w[inter_rows]) / n_inter
                sink_pairs.setdefault(axis.pa, []).append((blade, inter))
            else:
                logger.warning(
                    "tree %s axis %s top GU has no leaf samples; skipped for sink fit",
                    topology.tree_id, axis.id,
                )
        # Every leaf, tree by tree, each tree's in GU order.
        leaf_weights.extend(blade_w)
        leaf_areas.extend(samples.leaves["area"])

    p_int: dict[int, float] = {}
    allometry: dict[int, tuple[float, float]] = {}
    diagnostics: dict[int, dict[str, float]] = {}
    for pa in sorted(set(sink_pairs) | set(allo_pairs)):
        try:
            sfit = fit_sink_ratio(sink_pairs.get(pa, []))
        except ValidationError as exc:
            raise type(exc)(f"PA {pa} sink ratio: {exc}") from None
        try:
            afit = fit_allometry(allo_pairs.get(pa, []))
        except (InsufficientData, DegenerateSpread) as exc:
            raise type(exc)(f"PA {pa} allometry: {exc}") from None
        p_int[pa] = sfit.p
        allometry[pa] = (afit.b, afit.beta)
        diagnostics[pa] = {
            "sink_r2": sfit.r_squared,
            "sink_n": float(len(sink_pairs.get(pa, []))),
            "allometry_r2": afit.r_squared,
            "allometry_n": float(len(allo_pairs.get(pa, []))),
        }

    slw = estimate_slw(leaf_weights, leaf_areas)
    return DirectParams(p_int=p_int, allometry=allometry, slw=slw), diagnostics
