"""Measurement file parsing, per-(PA, CA) target series and the tree document.

Four CSV tables, ``axes``, ``gus``, ``internodes`` and ``leaves`` (UTF-8,
comma separated, header row mandatory, '.' decimal separator), describe a
measured tree; an empty ``parent_axis_id`` marks the root axis.  Fresh
weight is the mass variable throughout.  Each table is declared once, in
``_TABLES``: its columns in record-field order, each cell's rule (text, an
integer within bounds, or a measurement that is finite and > 0) and the
leading columns that identify a row.  Parsing, serializing and reading the
tree document all follow that declaration.  Columns are found by header name
and may come in any order; blank lines are skipped.  Row and cell problems
are reported with the file and the physical line the row ends on, so blank
lines and quoted cells that span lines are counted; of several, the first
row's is reported, and in a row the first column's.  Rows become
``NamedTuple`` records.

:func:`tree_to_json` writes the canonical tree document, byte for byte what
``json.dumps(doc, indent=2, sort_keys=True)`` gives for it, from one template
per row kind; :func:`tree_from_json` reads it back and checks every axis, GU
and measurement cell by the rule of its CSV column.  A CSV cell is parsed
and a JSON cell must already have the rule's type; both then go through the
same column check.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (DuplicateKey, InvalidParameter, MissingPA, SchemaError, TreeMismatch,
                     UnitError, ValidationError, read_text, schema_errors, utf8_errors)
from .topology import Axis, AxisRecord, GrowthUnit, GURecord, TreeTopology, build_topology

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
        return sorted({r.tree_id for r in self.axes})

    def for_tree(self, tree_id: str) -> "MeasurementSet":
        return MeasurementSet(**{
            name: [r for r in getattr(self, name) if r.tree_id == tree_id] for name in _TABLES
        })

    def topology(self) -> TreeTopology:
        return build_topology(self.axes, self.gus)


# Plain classes: a NamedTuple class costs more to create, at every import.
class _Rule:
    """How the cells of one column are read."""

    def __init__(self, kind: type, minimum: int | None = None, maximum: int | None = None,
                 optional: bool = False) -> None:
        self.kind = kind  # str: text; int: an integer within bounds; float: a measurement
        self.minimum, self.maximum = minimum, maximum
        self.optional = optional  # an empty CSV cell or a JSON null reads as None


class _Table:
    """One measurement table, as CSV file and as rows of the tree document."""

    def __init__(self, record: type, columns: Sequence[tuple[str, _Rule]], identity: int,
                 duplicate: str, json_keys: tuple[str, ...] = ()) -> None:
        self.record = record
        self.names, self.rules = zip(*columns)  # CSV columns and rules, in record-field order
        self.identity = identity  # leading columns that identify a row
        self.duplicate = duplicate  # DuplicateKey text for a repeated identity
        self.json_keys = json_keys or self.names[1:]  # tree.json keys of the non-implied columns


_TEXT = _Rule(str)
_COUNT = _Rule(int, 1)  # a cycle, a rank or an organ count
_MEASURED = _Rule(float)

# The four tables, in the order parse_measurements takes their files.
_TABLES = {
    "axes": _Table(AxisRecord, (
        ("tree_id", _TEXT), ("axis_id", _TEXT), ("parent_axis_id", _Rule(str, optional=True)),
        ("insertion_ca", _Rule(int, 1, optional=True)),
    ), 2, "axis {} declared twice"),
    "gus": _Table(GURecord, (
        ("tree_id", _TEXT), ("axis_id", _TEXT), ("gu_ca", _COUNT), ("internode_count", _COUNT),
        ("leaf_scar_count", _Rule(int, 0)),
    ), 3, "GU {} declared twice", ("ca", "internode_count", "leaf_scar_count")),
    "internodes": _Table(InternodeRecord, (
        ("tree_id", _TEXT), ("axis_id", _TEXT), ("gu_ca", _COUNT), ("rank_in_gu", _COUNT),
        ("fresh_weight_g", _MEASURED), ("length_cm", _MEASURED), ("diameter_mm", _MEASURED),
    ), 4, "internode {} measured twice"),
    "leaves": _Table(LeafRecord, (
        ("tree_id", _TEXT), ("axis_id", _TEXT), ("gu_ca", _COUNT), ("sample_index", _Rule(int, 1, 3)),
        ("fresh_weight_g", _MEASURED), ("area_cm2", _MEASURED),
    ), 4, "leaf sample {} measured twice"),
}

_JSON_TYPES = {str: {str}, int: {int}, float: {int, float}}  # bool is neither
_NOUN = {str: "text", int: "an integer", float: "a number"}


def _cell(cell, rule: _Rule, text: bool):
    """One cell read by ``rule``: parsed if ``text`` (a CSV cell), else type-checked.

    Raises SchemaError for a cell of the wrong type or form, UnitError for a
    value out of range.
    """
    if cell is None and rule.optional:
        return None
    if text:
        try:
            value = rule.kind(cell)
        except ValueError:
            raise SchemaError(f"not {_NOUN[rule.kind]}: {cell!r}") from None
    elif type(cell) in _JSON_TYPES[rule.kind]:
        value = cell
    else:
        raise SchemaError(f"not {_NOUN[rule.kind]}: {cell!r}")
    if rule.kind is float and not 0 < value < math.inf:
        raise UnitError(f"measurement must be finite and > 0, got {cell}")
    if rule.kind is int and value < rule.minimum:
        raise UnitError(f"{value} < {rule.minimum}")
    if rule.kind is int and value > (rule.maximum or math.inf):
        raise UnitError(f"{value} > {rule.maximum}")
    return value


def _column(cells: Sequence, rule: _Rule, text: bool) -> tuple[list, ValidationError | None]:
    """The values of one column read by ``rule``, and the error of its first bad cell.

    The column is converted and range-checked whole.  Only a column that
    fails is read cell by cell, to find and word its first bad cell; its
    values then stop before that cell.
    """
    if rule.optional and text:
        cells = [cell.strip() or None for cell in cells]
    present = [cell for cell in cells if cell is not None] if rule.optional else cells
    try:
        if text:
            values = present if rule.kind is str else list(map(rule.kind, present))
        elif set(map(type, present)) <= _JSON_TYPES[rule.kind]:
            values = present
        else:
            raise ValueError("a cell of another type")
        if values and rule.kind is int:
            if min(values) < rule.minimum or max(values) > (rule.maximum or math.inf):
                raise ValueError("an integer out of bounds")
        elif values and rule.kind is float:
            # A NaN or an inf makes the sum non-finite; an overflow costs a needless scan.
            if not (min(values) > 0 and math.isfinite(sum(values))):
                raise ValueError("a measurement out of range")
    except (ValueError, OverflowError):
        values = []
        for cell in cells:
            try:
                values.append(_cell(cell, rule, text))
            except ValidationError as exc:
                return values, exc
        return values, None
    if rule.optional:
        found = iter(values)
        values = [None if cell is None else next(found) for cell in cells]
    return values, None


def _records(table: _Table, columns: Sequence[Sequence], text: bool,
             names: Sequence[str], where, unique: bool = False) -> list:
    """The records of one table from its columns of cells.

    Of several bad cells the first in row order, then column order, is
    reported as ``"<where(row)>: column <names[i]>: ..."``.  With ``unique``
    a repeated identity in an earlier row is reported first, as DuplicateKey.
    """
    read = [_column(cells, rule, text) for rule, cells in zip(table.rules, columns)]
    bad = min(((len(values), i) for i, (values, error) in enumerate(read) if error), default=None)
    values = [v if bad is None else v[:bad[0]] for v, _ in read]
    if unique:
        keys = list(zip(*values[:table.identity]))
        if len(set(keys)) < len(keys):
            seen: set = set()
            for row, key in enumerate(keys):
                if key in seen:
                    raise DuplicateKey(f"{where(row)}: {table.duplicate.format(key)}")
                seen.add(key)
    if bad is not None:
        row, i = bad
        error = read[i][1]
        raise type(error)(f"{where(row)}: column {names[i]!r}: {error}")
    # The record's fields are the columns: ``_make`` without its length check.
    return list(map(partial(tuple.__new__, table.record), zip(*values)))


def _csv_records(path: str | Path, table: _Table) -> list:
    """The records of one measurement CSV file; extra columns are ignored."""
    path = Path(path)
    with utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, header row required")
        index = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        for name in table.names:
            if name not in index:
                raise SchemaError(f"{path}: missing column {name!r}")
        columns = [index[name] for name in table.names]
        pick = itemgetter(*columns)
        width = max(columns) + 1
        lines = []
        rows = []
        short = None
        for row in reader:
            if not row:
                continue
            if len(row) < width:  # reported after any fault in the rows above it
                name = next(n for n, i in zip(table.names, columns) if i >= len(row))
                short = SchemaError(f"{path}:{reader.line_num}: column {name!r}: missing cell")
                break
            lines.append(reader.line_num)
            rows.append(pick(row))
    cells = list(zip(*rows)) or [()] * len(table.names)
    del rows
    records = _records(table, cells, True, table.names, lambda row: f"{path}:{lines[row]}",
                       unique=True)
    if short:
        raise short
    return records


def parse_measurements(
    axes_path: str | Path,
    gus_path: str | Path,
    internodes_path: str | Path,
    leaves_path: str | Path,
) -> MeasurementSet:
    """Parse and validate the four measurement files.

    Raises SchemaError for missing columns or malformed cells, UnitError for
    out-of-range cells, DuplicateKey for repeated identities, each with the
    offending file and line.
    """
    paths = (axes_path, gus_path, internodes_path, leaves_path)
    return MeasurementSet(**{
        name: _csv_records(path, table) for (name, table), path in zip(_TABLES.items(), paths)
    })


def check_sampled_gus(ms: MeasurementSet, internodes_path: str | Path,
                      leaves_path: str | Path) -> None:
    """Reject an internode or leaf row of ``ms`` on a GU its GU file lacks.

    ``ms`` is what :func:`parse_measurements` read from the files, which
    checks each file on its own.  The first such internode row, else leaf
    row, raises ValidationError with its file and line, as a cell fault does.
    """
    paths = {"internodes": Path(internodes_path), "leaves": Path(leaves_path)}

    def where(name: str, row: int) -> str:
        # The file parsed, so its rows are counted as _csv_records counts them.
        with paths[name].open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            lines = (reader.line_num for cells in reader if cells)  # the header first
            return f"{paths[name]}:{next(islice(lines, row + 1, None))}"

    _check_sampled_gus(ms, where)


def _check_sampled_gus(ms: MeasurementSet, where) -> None:
    """Raise ValidationError at the first internode, then leaf, record on a
    GU that ``ms.gus`` lacks, placed by ``where(table name, row)``."""
    place = itemgetter(0, 1, 2)  # a record's tree, axis and cycle
    gus = set(map(place, ms.gus))
    for name in ("internodes", "leaves"):
        records = getattr(ms, name)
        if not gus.issuperset(map(place, records)):
            row, rec = next((row, rec) for row, rec in enumerate(records)
                            if place(rec) not in gus)
            raise ValidationError(f"{where(name, row)}: record references unknown GU "
                                  f"({rec.axis_id!r}, ca {rec.gu_ca})")


def serialize_measurements(ms: MeasurementSet) -> dict[str, str]:
    """Render records back to the four CSV texts, losslessly.

    Rows are sorted by their identity.  Cells holding a comma, a quote or a
    line break are quoted.  A row with a carriage return is quoted whole,
    since ``csv.writer`` leaves a lone ``\\r`` unquoted when the line
    terminator is ``\\n``.
    """
    texts = {}
    for name, table in _TABLES.items():
        buf = io.StringIO()
        plain = csv.writer(buf, lineterminator="\n")
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(table.names)
        for record in sorted(getattr(ms, name), key=itemgetter(slice(table.identity))):
            row = ["" if value is None else str(value) for value in record]
            (quoted if any("\r" in cell for cell in row) else plain).writerow(row)
        texts[name] = buf.getvalue()
    return texts


# -- samples per GU -------------------------------------------------------------

class GUSamples(NamedTuple):
    """One GU of a tree and the measurement records taken on it."""

    axis: Axis
    gu: GrowthUnit
    internodes: list[InternodeRecord]
    leaves: list[LeafRecord]


def samples_by_gu(topology: TreeTopology, internodes: Sequence[InternodeRecord],
                  leaves: Sequence[LeafRecord]) -> list[GUSamples]:
    """Every GU of ``topology``, in :meth:`~TreeTopology.iter_gus` order, with its records.

    The one place a measurement record is attached to a GU.  Each GU lists
    its internode and leaf records in record order; a GU without samples
    lists none.  No PA is needed.

    Raises:
        TreeMismatch: a record belongs to another tree.
        ValidationError: a record names a GU the tree lacks.
    """
    table = {(axis.id, gu.ca): GUSamples(axis, gu, [], []) for axis, gu in topology.iter_gus()}
    for records, field_index in ((internodes, 2), (leaves, 3)):  # GUSamples.internodes, .leaves
        for rec in records:
            if rec.tree_id != topology.tree_id:
                raise TreeMismatch(f"tree {topology.tree_id!r}: record ({rec.axis_id!r}, "
                                   f"ca {rec.gu_ca}) is of tree {rec.tree_id!r}")
            samples = table.get((rec.axis_id, rec.gu_ca))
            if samples is None:
                raise ValidationError(f"tree {topology.tree_id!r}: record references "
                                      f"unknown GU ({rec.axis_id!r}, ca {rec.gu_ca})")
            samples[field_index].append(rec)
    return list(table.values())


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
            "entries": {f"{pa},{ca}": asdict(e) for (pa, ca), e in sorted(self.entries.items())},
            "cumulated": {str(cycle): asdict(c) for cycle, c in sorted(self.cumulated.items())},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, source: str = "targets") -> "TargetSeries":
        """Parse :meth:`to_json` output; ``source`` names the input in errors.

        Raises:
            SchemaError: the text is not JSON, lacks a key, or holds a value
                of the wrong type or range: a PA, CA or cycle key < 1, an
                ``n_internodes`` that is not an integer >= 1, or another
                value that is not finite and >= 0 (zeros come from a trace
                with no seed biomass).
        """

        def checked(where: str, keys: Sequence[int], record):
            if min(keys) < 1:
                raise InvalidParameter(f"{where}: PA, CA and cycle keys must be >= 1")
            for name, value in asdict(record).items():
                if name == "n_internodes":
                    if type(value) is not int or value < 1:
                        raise InvalidParameter(
                            f"{where}: n_internodes must be an integer >= 1, got {value!r}")
                elif type(value) not in (int, float) or not 0 <= value < math.inf:
                    raise InvalidParameter(
                        f"{where}: {name} must be finite and >= 0, got {value!r}")
            return record

        with schema_errors(source):
            doc = json.loads(text)
            entries = {}
            for key, val in doc["entries"].items():
                pa, ca = map(int, key.split(","))
                entries[(pa, ca)] = checked(f"entries[{key!r}]", (pa, ca), TargetEntry(**val))
            cumulated = {
                int(k): checked(f"cumulated[{k!r}]", (int(k),), CumEntry(**v))
                for k, v in doc["cumulated"].items()
            }
            return cls(tree_id=doc["tree_id"], entries=entries, cumulated=cumulated)

    @classmethod
    def load(cls, path: str | Path) -> "TargetSeries":
        return cls.from_json(read_text(path), str(path))


def _mean(records: Sequence, name: str) -> float:
    return sum(map(attrgetter(name), records)) / len(records)


def build_target_series(ms: MeasurementSet, topology: TreeTopology) -> TargetSeries:
    """Aggregate measurement records into the fitting target of one tree.

    ``topology`` must be classified (see :func:`with_physio_ages`): each
    GU's group is its axis's PA and its own CA, and an axis without a PA
    raises MissingPA.  Records are attached to GUs by :func:`samples_by_gu`.
    Entry means are arithmetic means over the records of each (PA, CA)
    group.  Cumulated series extend the recorded means over the full
    recorded structure: each GU contributes mean internode weight times its
    internode count, and mean sampled leaf weight times its internode count
    (one blade per internode).  A GU or a group without samples inherits,
    with a warning, the mean of its group, else of its CA, else of the
    whole tree.
    """
    for axis in topology.axes_sorted():
        if axis.pa is None:
            raise MissingPA(f"axis {axis.id!r} has no PA; classify first")
    table = samples_by_gu(topology, ms.internodes, ms.leaves)

    # Each kind's records pooled per (PA, CA) group, per CA and over the tree (key None).
    pools: dict[str, dict] = {"internodes": {}, "leaves": {}}
    for s in table:
        for kind, pool in pools.items():
            records = getattr(s, kind)
            if records:
                for key in ((s.axis.pa, s.gu.ca), s.gu.ca, None):
                    pool.setdefault(key, []).extend(records)

    def inherited(kind: str, name: str, label: str, group: tuple[int, int],
                  gu: GUSamples | None = None) -> float:
        """Mean ``name`` of ``group``'s ``kind`` records, else its CA's, else the tree's.

        Warns unless the group's own mean is taken for the group; for a
        ``gu``, which has no records of its own, it always warns.
        """
        pool = pools[kind]
        for key in (group, group[1], None):
            if key in pool:
                break
        else:
            raise ValidationError(f"no {label} samples anywhere in the tree")
        value = _mean(pool[key], name)
        if gu is not None:
            logger.warning("no %s samples for GU %s; inheriting mean %.4g",
                           label, (gu.axis.id, gu.gu.ca), value)
        elif key != group:
            logger.warning("no %s samples for group PA%d/CA%d; inheriting mean %.4g",
                           label, group[0], group[1], value)
        return value

    # Per-(PA, CA) entries, over groups backed by internode records.
    groups = pools["internodes"]
    entries = {
        group: TargetEntry(
            mean_internode_weight=_mean(groups[group], "fresh_weight"),
            mean_internode_length=_mean(groups[group], "length"),
            mean_internode_diameter=_mean(groups[group], "diameter"),
            mean_blade_weight=inherited("leaves", "fresh_weight", "leaf weight", group),
            mean_blade_area=inherited("leaves", "area", "leaf area", group),
            n_internodes=len(groups[group]),
        )
        for group in sorted(key for key in groups if type(key) is tuple)
    }

    # Cumulated series over the whole recorded structure.
    cumulated: dict[int, CumEntry] = {}
    cum_int = 0.0
    cum_blade = 0.0
    gus_by_ca: dict[int, list[GUSamples]] = {}
    for s in table:
        gus_by_ca.setdefault(s.gu.ca, []).append(s)
    for cycle in range(1, topology.age + 1):
        for s in gus_by_ca.get(cycle, []):
            group = (s.axis.pa, s.gu.ca)
            weight = (_mean(s.internodes, "fresh_weight") if s.internodes else
                      inherited("internodes", "fresh_weight", "internode weight", group, s))
            blade = (_mean(s.leaves, "fresh_weight") if s.leaves else
                     inherited("leaves", "fresh_weight", "leaf weight", group, s))
            cum_int += weight * s.gu.internode_count
            cum_blade += blade * s.gu.internode_count
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


def tree_from_json(
    text: str, source: str = "tree document"
) -> tuple[TreeTopology, MeasurementSet]:
    """Parse :func:`tree_to_json` output; ``source`` names the input in errors.

    Every cell is read by the rule of its CSV column: text ids, integer
    cycles, counts, ranks and sample indices within bounds, finite positive
    measurements.  An error names the row by its place in the document
    (``axes[2].gus[0]``, ``measurements.leaves[5]``) and the cell by its key.

    Raises:
        SchemaError: the text is not JSON, lacks a key, or holds a value of
            the wrong type.
        UnitError: a cell is out of range.
        DuplicateKey: an internode or a leaf sample is measured twice.
        ValidationError: the rows do not form a valid tree, or a measurement
            row names a GU the document lacks.
    """
    with schema_errors(source):
        doc = json.loads(text)
        tree_id = doc["tree_id"]
        axes = doc["axes"]
        measurements = doc["measurements"]
        rows = {"axes": axes, "gus": [gu for axis in axes for gu in axis["gus"]],
                "internodes": measurements["internodes"], "leaves": measurements["leaves"]}
        gu_axes = [axis["axis_id"] for axis in axes for _ in axis["gus"]]

        def where(name: str, row: int) -> str:
            if name == "axes":
                return f"{source}: axes[{row}]"
            if name != "gus":
                return f"{source}: measurements.{name}[{row}]"
            # GU rows are numbered across axes, in document order.
            a, g = [(a, g) for a, axis in enumerate(axes) for g in range(len(axis["gus"]))][row]
            return f"{source}: axes[{a}].gus[{g}]"

        ms = MeasurementSet()
        for name, table in _TABLES.items():
            # The document implies tree_id, and a GU's axis_id by nesting.
            implied = ([tree_id] * len(rows[name]), gu_axes)[:len(table.names) - len(table.json_keys)]
            names = table.names[:len(implied)] + table.json_keys
            cells = [*implied, *(list(map(itemgetter(key), rows[name])) for key in table.json_keys)]
            # build_topology words a repeated axis or GU; measurements are checked here.
            setattr(ms, name, _records(table, cells, False, names, partial(where, name),
                                       unique=name in ("internodes", "leaves")))
            del cells  # no table's cells outlive its records
        topology = ms.topology()
    _check_sampled_gus(ms, where)
    return topology, ms
