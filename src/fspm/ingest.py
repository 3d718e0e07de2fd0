"""Measurement file parsing and per-(PA, CA) target series assembly.

Four CSV schemas (UTF-8, comma separated, header row mandatory, '.' decimal
separator) describe a measured tree:

* ``axes.csv``:       tree_id,axis_id,parent_axis_id,insertion_ca
  (empty parent marks the root)
* ``gus.csv``:        tree_id,axis_id,gu_ca,internode_count,leaf_scar_count
* ``internodes.csv``: tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm
* ``leaves.csv``:     tree_id,axis_id,gu_ca,sample_index,fresh_weight_g,area_cm2

Fresh weight is the mass variable throughout.  Row and column problems are
reported with file and line numbers.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    DuplicateKey,
    MissingPA,
    SchemaError,
    UnitError,
    ValidationError,
    schema_errors,
)
from .topology import AxisRecord, GURecord, TreeTopology, build_topology

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class InternodeRecord:
    tree_id: str
    axis_id: str
    gu_ca: int
    rank_in_gu: int
    fresh_weight: float  # g
    length: float  # cm
    diameter: float  # mm


@dataclass(frozen=True)
class LeafRecord:
    tree_id: str
    axis_id: str
    gu_ca: int
    sample_index: int  # 1..3 by the sampling protocol
    fresh_weight: float  # g
    area: float  # cm^2


@dataclass
class MeasurementSet:
    """Typed rows of the four measurement files."""

    axes: list[AxisRecord] = field(default_factory=list)
    gus: list[GURecord] = field(default_factory=list)
    internodes: list[InternodeRecord] = field(default_factory=list)
    leaves: list[LeafRecord] = field(default_factory=list)

    def tree_ids(self) -> list[str]:
        ids = {r.tree_id for r in self.axes}
        return sorted(ids)

    def for_tree(self, tree_id: str) -> "MeasurementSet":
        pick = lambda rows: [r for r in rows if r.tree_id == tree_id]
        return MeasurementSet(
            axes=pick(self.axes), gus=pick(self.gus),
            internodes=pick(self.internodes), leaves=pick(self.leaves),
        )

    def topology(self) -> TreeTopology:
        return build_topology(self.axes, self.gus)


def _rows(path: str | Path, required: Sequence[str]) -> list[tuple[int, dict]]:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, header row required")
        for col in required:
            if col not in reader.fieldnames:
                raise SchemaError(f"{path}: missing column {col!r}")
        return [(lineno, row) for lineno, row in enumerate(reader, start=2)]


def _to_int(path, lineno, col, raw, minimum=None, maximum=None) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{path}:{lineno}: column {col!r}: not an integer: {raw!r}")
    if minimum is not None and value < minimum:
        raise UnitError(f"{path}:{lineno}: column {col!r}: {value} < {minimum}")
    if maximum is not None and value > maximum:
        raise UnitError(f"{path}:{lineno}: column {col!r}: {value} > {maximum}")
    return value


def _to_positive_float(path, lineno, col, raw) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{path}:{lineno}: column {col!r}: not a number: {raw!r}")
    if not (math.isfinite(value) and value > 0):
        raise UnitError(
            f"{path}:{lineno}: column {col!r}: measurement must be finite and > 0, "
            f"got {raw}"
        )
    return value


def parse_measurements(
    axes_path: str | Path,
    gus_path: str | Path,
    internodes_path: str | Path,
    leaves_path: str | Path,
) -> MeasurementSet:
    """Parse and validate the four measurement files.

    Raises SchemaError for missing columns or malformed cells, UnitError for
    non-finite or nonpositive measurements, DuplicateKey for repeated
    identities, each with the offending file and line.
    """
    ms = MeasurementSet()

    seen: set = set()
    for lineno, row in _rows(axes_path, ("tree_id", "axis_id", "parent_axis_id", "insertion_ca")):
        parent = row["parent_axis_id"].strip() or None
        ins_raw = row["insertion_ca"].strip()
        ins = _to_int(axes_path, lineno, "insertion_ca", ins_raw, 1) if ins_raw else None
        rec = AxisRecord(row["tree_id"], row["axis_id"], parent, ins)
        key = (rec.tree_id, rec.axis_id)
        if key in seen:
            raise DuplicateKey(f"{axes_path}:{lineno}: axis {key} declared twice")
        seen.add(key)
        ms.axes.append(rec)

    seen = set()
    for lineno, row in _rows(gus_path, ("tree_id", "axis_id", "gu_ca", "internode_count", "leaf_scar_count")):
        rec = GURecord(
            row["tree_id"], row["axis_id"],
            _to_int(gus_path, lineno, "gu_ca", row["gu_ca"], 1),
            _to_int(gus_path, lineno, "internode_count", row["internode_count"], 1),
            _to_int(gus_path, lineno, "leaf_scar_count", row["leaf_scar_count"], 0),
        )
        key = (rec.tree_id, rec.axis_id, rec.gu_ca)
        if key in seen:
            raise DuplicateKey(f"{gus_path}:{lineno}: GU {key} declared twice")
        seen.add(key)
        ms.gus.append(rec)

    seen = set()
    for lineno, row in _rows(
        internodes_path,
        ("tree_id", "axis_id", "gu_ca", "rank_in_gu", "fresh_weight_g", "length_cm", "diameter_mm"),
    ):
        rec = InternodeRecord(
            row["tree_id"], row["axis_id"],
            _to_int(internodes_path, lineno, "gu_ca", row["gu_ca"], 1),
            _to_int(internodes_path, lineno, "rank_in_gu", row["rank_in_gu"], 1),
            _to_positive_float(internodes_path, lineno, "fresh_weight_g", row["fresh_weight_g"]),
            _to_positive_float(internodes_path, lineno, "length_cm", row["length_cm"]),
            _to_positive_float(internodes_path, lineno, "diameter_mm", row["diameter_mm"]),
        )
        key = (rec.tree_id, rec.axis_id, rec.gu_ca, rec.rank_in_gu)
        if key in seen:
            raise DuplicateKey(f"{internodes_path}:{lineno}: internode {key} measured twice")
        seen.add(key)
        ms.internodes.append(rec)

    seen = set()
    for lineno, row in _rows(
        leaves_path, ("tree_id", "axis_id", "gu_ca", "sample_index", "fresh_weight_g", "area_cm2")
    ):
        rec = LeafRecord(
            row["tree_id"], row["axis_id"],
            _to_int(leaves_path, lineno, "gu_ca", row["gu_ca"], 1),
            _to_int(leaves_path, lineno, "sample_index", row["sample_index"], 1, 3),
            _to_positive_float(leaves_path, lineno, "fresh_weight_g", row["fresh_weight_g"]),
            _to_positive_float(leaves_path, lineno, "area_cm2", row["area_cm2"]),
        )
        key = (rec.tree_id, rec.axis_id, rec.gu_ca, rec.sample_index)
        if key in seen:
            raise DuplicateKey(f"{leaves_path}:{lineno}: leaf sample {key} measured twice")
        seen.add(key)
        ms.leaves.append(rec)

    return ms


def serialize_measurements(ms: MeasurementSet) -> dict[str, str]:
    """Render records back to the four CSV texts, losslessly."""

    def table(name, header, rows, sort_key):
        lines = [",".join(header)]
        for r in sorted(rows, key=sort_key):
            lines.append(",".join(r))
        return "\n".join(lines) + "\n"

    return {
        "axes": table(
            "axes",
            ("tree_id", "axis_id", "parent_axis_id", "insertion_ca"),
            (
                (a.tree_id, a.axis_id, a.parent_axis_id or "",
                 "" if a.insertion_ca is None else str(a.insertion_ca))
                for a in ms.axes
            ),
            lambda r: (r[0], r[1]),
        ),
        "gus": table(
            "gus",
            ("tree_id", "axis_id", "gu_ca", "internode_count", "leaf_scar_count"),
            (
                (g.tree_id, g.axis_id, str(g.gu_ca), str(g.internode_count),
                 str(g.leaf_scar_count))
                for g in ms.gus
            ),
            lambda r: (r[0], r[1], int(r[2])),
        ),
        "internodes": table(
            "internodes",
            ("tree_id", "axis_id", "gu_ca", "rank_in_gu", "fresh_weight_g",
             "length_cm", "diameter_mm"),
            (
                (i.tree_id, i.axis_id, str(i.gu_ca), str(i.rank_in_gu),
                 repr(i.fresh_weight), repr(i.length), repr(i.diameter))
                for i in ms.internodes
            ),
            lambda r: (r[0], r[1], int(r[2]), int(r[3])),
        ),
        "leaves": table(
            "leaves",
            ("tree_id", "axis_id", "gu_ca", "sample_index", "fresh_weight_g", "area_cm2"),
            (
                (l.tree_id, l.axis_id, str(l.gu_ca), str(l.sample_index),
                 repr(l.fresh_weight), repr(l.area))
                for l in ms.leaves
            ),
            lambda r: (r[0], r[1], int(r[2]), int(r[3])),
        ),
    }


# -- target series ------------------------------------------------------------

@dataclass(frozen=True)
class TargetEntry:
    """Mean observations of one (PA, CA) organ group."""

    mean_internode_weight: float  # g
    mean_internode_length: float  # cm
    mean_internode_diameter: float  # mm
    mean_blade_weight: float  # g
    mean_blade_area: float  # cm^2
    n_internodes: int


@dataclass(frozen=True)
class CumEntry:
    cum_internode_mass: float  # g
    cum_blade_mass: float  # g


@dataclass
class TargetSeries:
    """Fitting target for one tree: per-(PA, CA) means plus cumulated series."""

    tree_id: str
    entries: dict[tuple[int, int], TargetEntry]
    cumulated: dict[int, CumEntry]

    def to_json(self) -> str:
        doc = {
            "tree_id": self.tree_id,
            "entries": {
                f"{pa},{ca}": {
                    f.name: getattr(e, f.name) for f in fields(TargetEntry)
                }
                for (pa, ca), e in sorted(self.entries.items())
            },
            "cumulated": {
                str(cycle): {f.name: getattr(c, f.name) for f in fields(CumEntry)}
                for cycle, c in sorted(self.cumulated.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, source: str = "targets") -> "TargetSeries":
        """Parse :meth:`to_json` output; ``source`` names the input in errors.

        Raises:
            SchemaError: the text is not JSON, lacks a key, or holds a value
                of the wrong type.
        """
        with schema_errors(source):
            doc = json.loads(text)
            entries = {}
            for key, val in doc["entries"].items():
                pa, ca = key.split(",")
                entries[(int(pa), int(ca))] = TargetEntry(**val)
            cumulated = {int(k): CumEntry(**v) for k, v in doc["cumulated"].items()}
            return cls(tree_id=doc["tree_id"], entries=entries, cumulated=cumulated)

    @classmethod
    def load(cls, path: str | Path) -> "TargetSeries":
        return cls.from_json(Path(path).read_text(encoding="utf-8"), str(path))


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


class _FallbackMean:
    """Mean lookup with (PA, CA) -> CA -> whole-tree fallback, with warnings."""

    def __init__(self, label: str, samples: dict[tuple[str, int], list[float]],
                 group_of_gu: Mapping[tuple[str, int], tuple[int, int]]):
        self.label = label
        self.by_gu = {k: _mean(v) for k, v in samples.items()}
        by_group: dict[tuple[int, int], list[float]] = {}
        by_ca: dict[int, list[float]] = {}
        everything: list[float] = []
        for gu_key, vals in samples.items():
            group = group_of_gu[gu_key]
            by_group.setdefault(group, []).extend(vals)
            by_ca.setdefault(group[1], []).extend(vals)
            everything.extend(vals)
        self.by_group = {k: _mean(v) for k, v in by_group.items()}
        self.by_ca = {k: _mean(v) for k, v in by_ca.items()}
        self.overall = _mean(everything) if everything else None

    def for_gu(self, gu_key: tuple[str, int], group: tuple[int, int]) -> float:
        if gu_key in self.by_gu:
            return self.by_gu[gu_key]
        value = self.for_group(group, warn=False)
        logger.warning(
            "no %s samples for GU %s; inheriting mean %.4g", self.label, gu_key, value
        )
        return value

    def for_group(self, group: tuple[int, int], warn: bool = True) -> float:
        if group in self.by_group:
            return self.by_group[group]
        if group[1] in self.by_ca:
            value = self.by_ca[group[1]]
        elif self.overall is not None:
            value = self.overall
        else:
            raise ValidationError(f"no {self.label} samples anywhere in the tree")
        if warn:
            logger.warning(
                "no %s samples for group PA%d/CA%d; inheriting mean %.4g",
                self.label, group[0], group[1], value,
            )
        return value


def build_target_series(
    ms: MeasurementSet, topology: TreeTopology, pa_map: Mapping[str, int]
) -> TargetSeries:
    """Aggregate measurement records into the fitting target of one tree.

    Entry means are arithmetic means over the records of each (PA, CA)
    group.  Cumulated series extend the recorded means over the full
    recorded structure: each GU contributes mean internode weight times its
    internode count, and mean sampled leaf weight times its internode count
    (one blade per internode).  GUs without samples inherit their group's
    mean, falling back to the same-CA and then whole-tree mean.
    """
    for rec in ms.internodes + ms.leaves:
        if rec.axis_id not in pa_map:
            raise MissingPA(f"axis {rec.axis_id!r} has no PA assignment")
        axis = topology.axes.get(rec.axis_id)
        if axis is None or axis.gu_at(rec.gu_ca) is None:
            raise ValidationError(
                f"record references unknown GU ({rec.axis_id!r}, ca {rec.gu_ca})"
            )

    group_of_gu: dict[tuple[str, int], tuple[int, int]] = {}
    for axis, gu in topology.iter_gus():
        group_of_gu[(axis.id, gu.ca)] = (pa_map[axis.id], gu.ca) if axis.id in pa_map else None
    if any(v is None for v in group_of_gu.values()):
        missing = sorted(a for (a, _), v in group_of_gu.items() if v is None)
        raise MissingPA(f"axes without PA assignment: {missing}")

    int_weight: dict[tuple[str, int], list[float]] = {}
    int_length: dict[tuple[str, int], list[float]] = {}
    int_diameter: dict[tuple[str, int], list[float]] = {}
    for r in ms.internodes:
        key = (r.axis_id, r.gu_ca)
        int_weight.setdefault(key, []).append(r.fresh_weight)
        int_length.setdefault(key, []).append(r.length)
        int_diameter.setdefault(key, []).append(r.diameter)
    leaf_weight: dict[tuple[str, int], list[float]] = {}
    leaf_area: dict[tuple[str, int], list[float]] = {}
    for r in ms.leaves:
        key = (r.axis_id, r.gu_ca)
        leaf_weight.setdefault(key, []).append(r.fresh_weight)
        leaf_area.setdefault(key, []).append(r.area)

    w_mean = _FallbackMean("internode weight", int_weight, group_of_gu)
    blade_mean = _FallbackMean("leaf weight", leaf_weight, group_of_gu)
    area_mean = _FallbackMean("leaf area", leaf_area, group_of_gu)

    # Per-(PA, CA) entries, over groups backed by internode records.
    groups: dict[tuple[int, int], dict[str, list[float]]] = {}
    for gu_key, weights in int_weight.items():
        g = groups.setdefault(group_of_gu[gu_key], {
            "w": [], "l": [], "d": [], "bw": [], "ba": [],
        })
        g["w"].extend(weights)
        g["l"].extend(int_length[gu_key])
        g["d"].extend(int_diameter[gu_key])
    for gu_key, weights in leaf_weight.items():
        group = group_of_gu[gu_key]
        if group in groups:
            groups[group]["bw"].extend(weights)
            groups[group]["ba"].extend(leaf_area[gu_key])

    entries: dict[tuple[int, int], TargetEntry] = {}
    for group in sorted(groups):
        g = groups[group]
        entries[group] = TargetEntry(
            mean_internode_weight=_mean(g["w"]),
            mean_internode_length=_mean(g["l"]),
            mean_internode_diameter=_mean(g["d"]),
            mean_blade_weight=_mean(g["bw"]) if g["bw"] else blade_mean.for_group(group),
            mean_blade_area=_mean(g["ba"]) if g["ba"] else area_mean.for_group(group),
            n_internodes=len(g["w"]),
        )

    # Cumulated series over the whole recorded structure.
    cumulated: dict[int, CumEntry] = {}
    cum_int = 0.0
    cum_blade = 0.0
    gus_by_ca: dict[int, list] = {}
    for axis, gu in topology.iter_gus():
        gus_by_ca.setdefault(gu.ca, []).append((axis, gu))
    for cycle in range(1, topology.age + 1):
        for axis, gu in gus_by_ca.get(cycle, []):
            gu_key = (axis.id, gu.ca)
            group = group_of_gu[gu_key]
            cum_int += w_mean.for_gu(gu_key, group) * gu.internode_count
            cum_blade += blade_mean.for_gu(gu_key, group) * gu.internode_count
        cumulated[cycle] = CumEntry(cum_internode_mass=cum_int, cum_blade_mass=cum_blade)

    return TargetSeries(tree_id=topology.tree_id, entries=entries, cumulated=cumulated)


# -- canonical tree document --------------------------------------------------

def tree_to_json(topology: TreeTopology, ms: MeasurementSet) -> str:
    """Canonical single-tree document: structure plus measurement rows."""
    doc = {
        "tree_id": topology.tree_id,
        "age": topology.age,
        "axes": [
            {
                "axis_id": axis.id,
                "parent_axis_id": axis.parent_id,
                "insertion_ca": axis.insertion_ca,
                "gus": [
                    {
                        "ca": gu.ca,
                        "internode_count": gu.internode_count,
                        "leaf_scar_count": gu.leaf_scar_count,
                    }
                    for gu in axis.gus
                ],
            }
            for axis in topology.axes_sorted()
        ],
        "measurements": {
            "internodes": [
                {
                    "axis_id": r.axis_id, "gu_ca": r.gu_ca, "rank_in_gu": r.rank_in_gu,
                    "fresh_weight_g": r.fresh_weight, "length_cm": r.length,
                    "diameter_mm": r.diameter,
                }
                for r in sorted(ms.internodes, key=lambda r: (r.axis_id, r.gu_ca, r.rank_in_gu))
            ],
            "leaves": [
                {
                    "axis_id": r.axis_id, "gu_ca": r.gu_ca, "sample_index": r.sample_index,
                    "fresh_weight_g": r.fresh_weight, "area_cm2": r.area,
                }
                for r in sorted(ms.leaves, key=lambda r: (r.axis_id, r.gu_ca, r.sample_index))
            ],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tree_from_json(
    text: str, source: str = "tree document"
) -> tuple[TreeTopology, MeasurementSet]:
    """Parse :func:`tree_to_json` output; ``source`` names the input in errors.

    Raises:
        SchemaError: the text is not JSON, lacks a key, or holds a value of
            the wrong type.
        ValidationError: the rows do not form a valid tree.
    """
    with schema_errors(source):
        doc = json.loads(text)
        tree_id = doc["tree_id"]
        axes = []
        gus = []
        for ax in doc["axes"]:
            axes.append(AxisRecord(tree_id, ax["axis_id"], ax["parent_axis_id"], ax["insertion_ca"]))
            for gu in ax["gus"]:
                gus.append(GURecord(tree_id, ax["axis_id"], gu["ca"],
                                    gu["internode_count"], gu["leaf_scar_count"]))
        internodes = [
            InternodeRecord(tree_id, r["axis_id"], r["gu_ca"], r["rank_in_gu"],
                            r["fresh_weight_g"], r["length_cm"], r["diameter_mm"])
            for r in doc["measurements"]["internodes"]
        ]
        leaves = [
            LeafRecord(tree_id, r["axis_id"], r["gu_ca"], r["sample_index"],
                       r["fresh_weight_g"], r["area_cm2"])
            for r in doc["measurements"]["leaves"]
        ]
        ms = MeasurementSet(axes=axes, gus=gus, internodes=internodes, leaves=leaves)
        return ms.topology(), ms
