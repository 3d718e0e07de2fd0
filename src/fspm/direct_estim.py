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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateSpread,
    InsufficientData,
    InvalidParameter,
    ValidationError,
    _json_number,
    read_text,
    schema_errors,
)

logger = logging.getLogger(__name__)


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
    no-intercept fit.
    """
    if len(pairs) < 2:
        raise InsufficientData(f"need >= 2 pairs, got {len(pairs)}")
    x = np.asarray([p[0] for p in pairs], dtype=float)
    y = np.asarray([p[1] for p in pairs], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise InsufficientData("all masses must be positive")
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


def estimate_slw(leaves: Iterable) -> float:
    """Pooled specific leaf weight, total mass over total area (g/cm^2).

    ``leaves`` is any iterable of objects with ``fresh_weight`` (g) and
    ``area`` (cm^2) attributes.
    """
    total_w = 0.0
    total_a = 0.0
    n = 0
    for leaf in leaves:
        if leaf.area <= 0 or leaf.fresh_weight <= 0:
            raise InsufficientData("leaf weight and area must be positive")
        total_w += leaf.fresh_weight
        total_a += leaf.area
        n += 1
    if n < 1:
        raise InsufficientData("no leaf records")
    return total_w / total_a


def estimate_direct_params(
    trees: Sequence[tuple[object, Mapping[str, int]]],
    internodes: Sequence,
    leaves: Sequence,
) -> tuple[DirectParams, dict[int, dict[str, float]]]:
    """Assemble DirectParams from measurement records on classified trees.

    ``trees`` pairs each topology with its PA assignment; records from every
    tree are pooled per PA (a single tree carries only one main stem, so the
    sink regression for PA 1 usually needs several trees).  Sink and
    allometry use the new growth at the top of each axis: per PA, sink pairs
    are the (mean sampled blade mass, mean internode mass) of each axis's
    topmost GU, allometry pairs the (mass, length) of every internode record
    in those GUs.  SLW pools every leaf.  Also returns per-PA fit
    diagnostics (r_squared, n observations).
    """
    int_by_gu: dict[tuple[str, str, int], list] = {}
    for rec in internodes:
        int_by_gu.setdefault((rec.tree_id, rec.axis_id, rec.gu_ca), []).append(rec)
    leaf_by_gu: dict[tuple[str, str, int], list] = {}
    for rec in leaves:
        leaf_by_gu.setdefault((rec.tree_id, rec.axis_id, rec.gu_ca), []).append(rec)

    sink_pairs: dict[int, list[tuple[float, float]]] = {}
    allo_pairs: dict[int, list[tuple[float, float]]] = {}
    for topology, pa_map in trees:
        for axis in topology.axes_sorted():
            pa = pa_map.get(axis.id)
            if pa is None:
                continue
            key = (topology.tree_id, axis.id, axis.last_ca)
            ints = int_by_gu.get(key, [])
            lvs = leaf_by_gu.get(key, [])
            if ints:
                allo_pairs.setdefault(pa, []).extend(
                    (r.fresh_weight, r.length) for r in ints
                )
            if ints and lvs:
                blade = sum(r.fresh_weight for r in lvs) / len(lvs)
                inter = sum(r.fresh_weight for r in ints) / len(ints)
                sink_pairs.setdefault(pa, []).append((blade, inter))
            elif ints:
                logger.warning(
                    "tree %s axis %s top GU has no leaf samples; skipped for sink fit",
                    topology.tree_id, axis.id,
                )

    p_int: dict[int, float] = {}
    allometry: dict[int, tuple[float, float]] = {}
    diagnostics: dict[int, dict[str, float]] = {}
    for pa in sorted(set(sink_pairs) | set(allo_pairs)):
        sfit = fit_sink_ratio(sink_pairs.get(pa, []))
        afit = fit_allometry(allo_pairs.get(pa, []))
        p_int[pa] = sfit.p
        allometry[pa] = (afit.b, afit.beta)
        diagnostics[pa] = {
            "sink_r2": sfit.r_squared,
            "sink_n": float(len(sink_pairs.get(pa, []))),
            "allometry_r2": afit.r_squared,
            "allometry_n": float(len(allo_pairs.get(pa, []))),
        }

    slw = estimate_slw(leaves)
    return DirectParams(p_int=p_int, allometry=allometry, slw=slw), diagnostics
