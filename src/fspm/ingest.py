"""Measurement file parsing, per-(PA, CA) target series and the tree document.

Four CSV schemas (UTF-8, comma separated, header row mandatory, '.' decimal
separator) describe a measured tree:

* ``axes.csv``:       tree_id,axis_id,parent_axis_id,insertion_ca
  (empty parent marks the root)
* ``gus.csv``:        tree_id,axis_id,gu_ca,internode_count,leaf_scar_count
* ``internodes.csv``: tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm
* ``leaves.csv``:     tree_id,axis_id,gu_ca,sample_index,fresh_weight_g,area_cm2

Fresh weight is the mass variable throughout.  Columns are found by header
name and may come in any order; blank lines are skipped.  Row and cell
problems are reported with the file and the physical line the row ends on,
so blank lines and quoted cells that span lines are counted.  Rows become
``NamedTuple`` records.

:func:`tree_to_json` writes the canonical tree document, byte for byte what
``json.dumps(doc, indent=2, sort_keys=True)`` gives for it, from one template
per row kind; :func:`tree_from_json` reads it back and checks its measurement
cells with the same rules as the CSV files.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field, fields
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateKey,
    MissingPA,
    SchemaError,
    UnitError,
    ValidationError,
    read_text,
    schema_errors,
    utf8_errors,
)
from .topology import AxisRecord, GURecord, TreeTopology, build_topology

logger = logging.getLogger(__name__)


class InternodeRecord(NamedTuple):
    """One row of an internodes file: measurements of one internode."""

    tree_id: str
    axis_id: str
    gu_ca: int
    rank_in_gu: int
    fresh_weight: float  # g
    length: float  # cm
    diameter: float  # mm


class LeafRecord(NamedTuple):
    """One row of a leaves file: measurements of one sampled blade."""

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


def _rows(path: str | Path, required: Sequence[str]) -> list[tuple[int, tuple]]:
    """(line, cells) for each non-blank data row of a CSV file.

    ``cells`` holds the row's ``required`` columns in that order.  ``line``
    is the physical line the row ends on.  Extra columns are ignored.

    Raises:
        SchemaError: the file is empty, is not UTF-8, lacks a required
            column, or has a row too short to hold one.
    """
    path = Path(path)
    with utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, header row required")
        index = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        for col in required:
            if col not in index:
                raise SchemaError(f"{path}: missing column {col!r}")
        columns = [index[col] for col in required]
        pick = itemgetter(*columns)
        width = max(columns) + 1
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                col = next(c for c, i in zip(required, columns) if i >= len(row))
                raise SchemaError(f"{path}:{reader.line_num}: column {col!r}: missing cell")
            rows.append((reader.line_num, pick(row)))
        return rows


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
    for lineno, (tree_id, axis_id, parent, ins) in _rows(
        axes_path, ("tree_id", "axis_id", "parent_axis_id", "insertion_ca")
    ):
        ins = ins.strip()
        rec = AxisRecord(
            tree_id, axis_id, parent.strip() or None,
            _to_int(axes_path, lineno, "insertion_ca", ins, 1) if ins else None,
        )
        key = (tree_id, axis_id)
        if key in seen:
            raise DuplicateKey(f"{axes_path}:{lineno}: axis {key} declared twice")
        seen.add(key)
        ms.axes.append(rec)

    seen = set()
    for lineno, (tree_id, axis_id, ca, count, scars) in _rows(
        gus_path, ("tree_id", "axis_id", "gu_ca", "internode_count", "leaf_scar_count")
    ):
        rec = GURecord(
            tree_id, axis_id,
            _to_int(gus_path, lineno, "gu_ca", ca, 1),
            _to_int(gus_path, lineno, "internode_count", count, 1),
            _to_int(gus_path, lineno, "leaf_scar_count", scars, 0),
        )
        key = (tree_id, axis_id, rec.gu_ca)
        if key in seen:
            raise DuplicateKey(f"{gus_path}:{lineno}: GU {key} declared twice")
        seen.add(key)
        ms.gus.append(rec)

    seen = set()
    for lineno, (tree_id, axis_id, ca, rank, weight, length, diameter) in _rows(
        internodes_path,
        ("tree_id", "axis_id", "gu_ca", "rank_in_gu", "fresh_weight_g", "length_cm", "diameter_mm"),
    ):
        rec = InternodeRecord(
            tree_id, axis_id,
            _to_int(internodes_path, lineno, "gu_ca", ca, 1),
            _to_int(internodes_path, lineno, "rank_in_gu", rank, 1),
            _to_positive_float(internodes_path, lineno, "fresh_weight_g", weight),
            _to_positive_float(internodes_path, lineno, "length_cm", length),
            _to_positive_float(internodes_path, lineno, "diameter_mm", diameter),
        )
        key = (tree_id, axis_id, rec.gu_ca, rec.rank_in_gu)
        if key in seen:
            raise DuplicateKey(f"{internodes_path}:{lineno}: internode {key} measured twice")
        seen.add(key)
        ms.internodes.append(rec)

    seen = set()
    for lineno, (tree_id, axis_id, ca, sample, weight, area) in _rows(
        leaves_path, ("tree_id", "axis_id", "gu_ca", "sample_index", "fresh_weight_g", "area_cm2")
    ):
        rec = LeafRecord(
            tree_id, axis_id,
            _to_int(leaves_path, lineno, "gu_ca", ca, 1),
            _to_int(leaves_path, lineno, "sample_index", sample, 1, 3),
            _to_positive_float(leaves_path, lineno, "fresh_weight_g", weight),
            _to_positive_float(leaves_path, lineno, "area_cm2", area),
        )
        key = (tree_id, axis_id, rec.gu_ca, rec.sample_index)
        if key in seen:
            raise DuplicateKey(f"{leaves_path}:{lineno}: leaf sample {key} measured twice")
        seen.add(key)
        ms.leaves.append(rec)

    return ms


def serialize_measurements(ms: MeasurementSet) -> dict[str, str]:
    """Render records back to the four CSV texts, losslessly.

    Cells holding a comma, a quote or a line break are quoted.  A row with a
    carriage return is quoted whole, since ``csv.writer`` leaves a lone
    ``\\r`` unquoted when the line terminator is ``\\n``.
    """

    def table(name, header, rows, sort_key):
        buf = io.StringIO()
        plain = csv.writer(buf, lineterminator="\n")
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(header)
        for r in sorted(rows, key=sort_key):
            (quoted if any("\r" in cell for cell in r) else plain).writerow(r)
        return buf.getvalue()

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
        return cls.from_json(read_text(path), str(path))


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

# One template per row kind, keys in sorted order, indented as
# json.dumps(indent=2) indents them; "%s" slots take rendered JSON values.
_TREE = """\
{
  "age": %s,
  "axes": %s,
  "measurements": {
    "internodes": %s,
    "leaves": %s
  },
  "tree_id": %s
}
"""
_AXIS = """\
    {
      "axis_id": %s,
      "gus": %s,
      "insertion_ca": %s,
      "parent_axis_id": %s
    }"""
_GU = """\
        {
          "ca": %s,
          "internode_count": %s,
          "leaf_scar_count": %s
        }"""
_INTERNODE = """\
      {
        "axis_id": %s,
        "diameter_mm": %s,
        "fresh_weight_g": %s,
        "gu_ca": %s,
        "length_cm": %s,
        "rank_in_gu": %s
      }"""
_LEAF = """\
      {
        "area_cm2": %s,
        "axis_id": %s,
        "fresh_weight_g": %s,
        "gu_ca": %s,
        "sample_index": %s
      }"""

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(value) -> str:
    """One scalar as ``json.dumps`` writes it (``ensure_ascii``, ``allow_nan``)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_column(values: Sequence) -> list[str]:
    """:func:`_json_scalar` of each value; a column of one plain type maps at C speed."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if _NON_FINITE.keys().isdisjoint(texts):
            return texts
    return list(map(_json_scalar, values))


def _json_list(items: list[str], indent: str) -> str:
    """Rendered items as a JSON list whose closing bracket is at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _json_rows(template: str, records: Sequence, names: Sequence[str]) -> list[str]:
    """``template`` filled once per record with its ``names`` fields, rendered."""
    columns = [_json_column(list(map(attrgetter(name), records))) for name in names]
    return list(map(template.__mod__, zip(*columns)))


def tree_to_json(topology: TreeTopology, ms: MeasurementSet) -> str:
    """Canonical single-tree document: structure plus measurement rows.

    The text is ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of the
    document ``{"age", "axes": [{"axis_id", "gus": [{"ca", "internode_count",
    "leaf_scar_count"}], "insertion_ca", "parent_axis_id"}], "measurements":
    {"internodes": [...], "leaves": [...]}, "tree_id"}``, with measurement
    rows sorted by axis, cycle and rank or sample index.  It is written from
    one template per row kind and rendered column by column; a value that
    is no JSON scalar raises ``TypeError``, as ``json.dumps`` does.
    """
    axes = topology.axes_sorted()
    gu_texts = iter(_json_rows(
        _GU, [gu for axis in axes for gu in axis.gus],
        ("ca", "internode_count", "leaf_scar_count"),
    ))
    gus = [_json_list(list(islice(gu_texts, len(axis.gus))), "      ") for axis in axes]
    axis_texts = list(map(_AXIS.__mod__, zip(
        _json_column([axis.id for axis in axes]), gus,
        _json_column([axis.insertion_ca for axis in axes]),
        _json_column([axis.parent_id for axis in axes]),
    )))
    internodes = sorted(ms.internodes, key=attrgetter("axis_id", "gu_ca", "rank_in_gu"))
    leaves = sorted(ms.leaves, key=attrgetter("axis_id", "gu_ca", "sample_index"))
    return _TREE % (
        _json_scalar(topology.age),
        _json_list(axis_texts, "  "),
        _json_list(_json_rows(_INTERNODE, internodes, (
            "axis_id", "diameter", "fresh_weight", "gu_ca", "length", "rank_in_gu",
        )), "    "),
        _json_list(_json_rows(_LEAF, leaves, (
            "area", "axis_id", "fresh_weight", "gu_ca", "sample_index",
        )), "    "),
        _json_scalar(topology.tree_id),
    )


# Cell rules of the measurement rows from their third field on:
# (column, minimum, maximum) for integers, (column,) for measurements.
_INTERNODE_CELLS = (
    ("gu_ca", 1, None), ("rank_in_gu", 1, None),
    ("fresh_weight_g",), ("length_cm",), ("diameter_mm",),
)
_LEAF_CELLS = (("gu_ca", 1, None), ("sample_index", 1, 3), ("fresh_weight_g",), ("area_cm2",))


def _check_cells(source: str, table: str, column: str, values: Sequence,
                 minimum: int | None = None, maximum: int | None = None) -> None:
    """Check one non-empty measurement column of a tree document.

    The rules are those of the CSV files: with ``minimum`` the cells must be
    integers within bounds, otherwise finite numbers > 0.  The column is
    tested whole; only a failing column is scanned cell by cell, for the
    message, which names the row by its index in the table.

    Raises:
        SchemaError: a cell of the wrong JSON type.
        UnitError: a value out of range.
    """
    kinds = set(map(type, values))
    if minimum is not None:
        if kinds <= {int} and min(values) >= minimum and (
            maximum is None or max(values) <= maximum
        ):
            return
    elif kinds <= {float}:
        cells = np.array(values, dtype=float)
        if np.all((cells > 0.0) & (cells < math.inf)):
            return
    for i, value in enumerate(values):
        where = f"{source}: measurements.{table}[{i}]: column {column!r}"
        if minimum is not None:
            if type(value) is not int:
                raise SchemaError(f"{where}: not an integer: {value!r}")
            if value < minimum:
                raise UnitError(f"{where}: {value} < {minimum}")
            if maximum is not None and value > maximum:
                raise UnitError(f"{where}: {value} > {maximum}")
        elif type(value) not in (int, float):
            raise SchemaError(f"{where}: not a number: {value!r}")
        elif not 0 < value < math.inf:
            raise UnitError(f"{where}: measurement must be finite and > 0, got {value!r}")


def tree_from_json(
    text: str, source: str = "tree document"
) -> tuple[TreeTopology, MeasurementSet]:
    """Parse :func:`tree_to_json` output; ``source`` names the input in errors.

    Measurement cells follow the CSV rules: integer cycles, ranks and sample
    indices in range, finite positive measurements.

    Raises:
        SchemaError: the text is not JSON, lacks a key, or holds a value of
            the wrong type.
        UnitError: a measurement cell is out of range.
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
        for table, records, rules in (
            ("internodes", internodes, _INTERNODE_CELLS), ("leaves", leaves, _LEAF_CELLS),
        ):
            if records:
                for (column, *bounds), values in zip(rules, list(zip(*records))[2:]):
                    _check_cells(source, table, column, values, *bounds)
        ms = MeasurementSet(axes=axes, gus=gus, internodes=internodes, leaves=leaves)
        return ms.topology(), ms
