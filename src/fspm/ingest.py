"""Measurement file parsing, per-(PA, CA) target series and the tree document.

Four CSV tables, ``axes``, ``gus``, ``internodes`` and ``leaves`` (UTF-8,
comma separated, header row mandatory, '.' decimal separator), describe a
measured tree; an empty ``parent_axis_id`` marks the root axis.  Fresh
weight is the mass variable throughout.  Each table is declared once, in
``_TABLES``: its columns in record-field order, each cell's rule (text, an
integer within bounds, or a measurement that is finite and > 0) and the
leading columns that identify a row.  Parsing the CSVs, and writing and
reading the tree document, all follow that declaration.  Columns are found by header name
and may come in any order; blank lines are skipped.  Row and cell problems
are reported with the file and the physical line the row ends on, so blank
lines and quoted cells that span lines are counted; of several, the first
row's is reported, and in a row the first column's.  Axis and GU rows
become ``NamedTuple`` records, which :func:`build_topology` reads; internode
and leaf rows stay in their columns, a :class:`ColumnTable` each, and no
record is built per row on their way to the per-GU table of
:func:`samples_by_gu`.

:func:`tree_to_json` builds the canonical tree document as dicts and lists
and writes it with ``json.dumps(doc, sort_keys=True)``, on one line.  Axes
and their GUs are row objects keyed by their tables' tree document keys in
``_TABLES``; the internode and leaf tables are objects of columns, one
array per key, so decoding a document builds no object per measurement
row.  :func:`tree_from_json` reads it back, and reads the indented text of
earlier versions and measurement tables that are lists of row objects, the
layout of versions before that, the same way: it tells the two table
layouts apart by each table's JSON type.
It checks every axis, GU and measurement cell by the rule of its CSV
column.  A CSV cell is parsed
and a JSON cell must already have the rule's type; both then go through the
same column check.  Both readers then reject the first internode, else leaf,
row on a GU its tree lacks, so a tree that :func:`parse_measurements`
accepts comes back from its own document.  These two readers and
:func:`samples_by_gu` run with the cyclic garbage collector paused.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import json
import logging
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import attrgetter, eq, itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .errors import (DuplicateKey, InvalidParameter, MissingPA, SchemaError, TreeMismatch,
                     UnitError, ValidationError, _json_number, read_text, schema_errors,
                     utf8_errors)
from .topology import Axis, AxisRecord, GrowthUnit, GURecord, TreeTopology, build_topology

logger = logging.getLogger(__name__)


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Hold CPython's cyclic garbage collector off for a reader's whole call
    (as a decorator, around its whole body).

    :func:`parse_measurements`, :func:`tree_from_json` and
    :func:`samples_by_gu` build one tuple, dict or record per row and per
    key and no reference cycles, so a collection run inside them frees
    nothing they allocate; yet the collector is triggered by allocation
    counts and would run many times over a large tree.  It is disabled
    only if enabled, and enabled again however the call ends: a caller
    that has it off keeps it off, and nesting does nothing.  The switch is
    process-wide: a reader on another thread may find the collector
    already paused, leave it alone and see it enabled again midway by the
    reader that paused it.  It is never left off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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


# Plain classes: a NamedTuple class costs more to create, at every import.
class ColumnTable:
    """A measurement table held as columns: one sequence per field of ``record``.

    The readers keep internode and leaf rows this way.  Indexing or
    iterating the table yields ``record`` instances, so it compares equal
    to a list of the same records; the library itself reads the columns.
    """

    __slots__ = ("record", "columns")

    def __init__(self, record: type, columns: list[Sequence]) -> None:
        self.record = record
        self.columns = columns  # in record-field order, all of one length

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, row: int):
        return self.record._make([column[row] for column in self.columns])

    def __iter__(self):
        return map(self.record._make, zip(*self.columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ColumnTable, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class MeasurementSet:
    """Typed rows of the four measurement files.

    ``axes`` and ``gus`` are lists of records.  ``internodes`` and
    ``leaves`` are any sequences of their records: the readers give a
    :class:`ColumnTable`, and a list of records built in code is read the same.
    """

    axes: list[AxisRecord] = field(default_factory=list)
    gus: list[GURecord] = field(default_factory=list)
    internodes: Sequence[InternodeRecord] = field(default_factory=list)
    leaves: Sequence[LeafRecord] = field(default_factory=list)

    def tree_ids(self) -> list[str]:
        return sorted({r.tree_id for r in self.axes})

    def for_tree(self, tree_id: str) -> "MeasurementSet":
        def rows(name: str):
            records = getattr(self, name)
            if name in ("axes", "gus"):
                return [r for r in records if r.tree_id == tree_id]
            columns = _columns(records, _TABLES[name])
            keep = list(map(eq, columns[0], repeat(tree_id)))
            return ColumnTable(_TABLES[name].record,
                               [list(compress(column, keep)) for column in columns])

        return MeasurementSet(**{name: rows(name) for name in _TABLES})

    def topology(self) -> TreeTopology:
        return build_topology(self.axes, self.gus)


class _Rule:
    """How the cells of one column are read."""

    def __init__(self, kind: type, minimum: int | None = None, maximum: int | None = None,
                 optional: bool = False) -> None:
        self.kind = kind  # str: text; int: an integer within bounds; float: a measurement
        self.minimum, self.maximum = minimum, maximum
        self.optional = optional  # an empty CSV cell or a JSON null reads as None


class _Table:
    """One measurement table, as CSV file and as part of the tree document."""

    def __init__(self, record: type, columns: Sequence[tuple[str, _Rule]], identity: int,
                 duplicate: str, json_keys: tuple[str, ...] = ()) -> None:
        self.record = record
        self.names, self.rules = zip(*columns)  # CSV columns and rules, in record-field order
        self.identity = identity  # leading columns that identify a row
        self.duplicate = duplicate  # DuplicateKey text for a repeated identity
        self.json_keys = json_keys or self.names[1:]  # tree.json keys of the non-implied columns


# Bounds far above any measured tree; a count or a cycle past them would
# make the later stages expand a census or a target series without end.
MAX_CYCLE = 1_000
MAX_INTERNODES_PER_GU = 10_000

_TEXT = _Rule(str)
_CYCLE = _Rule(int, 1, MAX_CYCLE)
_COUNT = _Rule(int, 1, MAX_INTERNODES_PER_GU)  # internodes of a GU, or a rank among them
_MEASURED = _Rule(float)

# The four tables, in the order parse_measurements takes their files.
_TABLES = {
    "axes": _Table(AxisRecord, (
        ("tree_id", _TEXT), ("axis_id", _TEXT), ("parent_axis_id", _Rule(str, optional=True)),
        ("insertion_ca", _Rule(int, 1, MAX_CYCLE, optional=True)),
    ), 2, "axis {} declared twice"),
    "gus": _Table(GURecord, (
        ("tree_id", _TEXT), ("axis_id", _TEXT), ("gu_ca", _CYCLE), ("internode_count", _COUNT),
        ("leaf_scar_count", _Rule(int, 0)),
    ), 3, "GU {} declared twice", ("ca", "internode_count", "leaf_scar_count")),
    "internodes": _Table(InternodeRecord, (
        ("tree_id", _TEXT), ("axis_id", _TEXT), ("gu_ca", _CYCLE), ("rank_in_gu", _COUNT),
        ("fresh_weight_g", _MEASURED), ("length_cm", _MEASURED), ("diameter_mm", _MEASURED),
    ), 4, "internode {} measured twice"),
    "leaves": _Table(LeafRecord, (
        ("tree_id", _TEXT), ("axis_id", _TEXT), ("gu_ca", _CYCLE), ("sample_index", _Rule(int, 1, 3)),
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
    # An integer too large for a float is rejected here, on the failure path.
    if rule.kind is float and not 0 < value <= sys.float_info.max:
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


def _columns(rows: Sequence, table: _Table) -> list[Sequence]:
    """The columns of ``table``'s rows: a ColumnTable's own, else the records'."""
    if isinstance(rows, ColumnTable):
        return rows.columns
    return [list(column) for column in zip(*rows)] or [[] for _ in table.names]


def _records(table: _Table, columns: Sequence[Sequence], text: bool,
             names: Sequence[str], where, unique: bool = False) -> list | ColumnTable:
    """The rows of one table from its columns of cells: records, or for
    internodes and leaves a :class:`ColumnTable` of the checked values.

    Of several bad cells the first in row order, then column order, is
    reported as ``"<where(row)>: column <names[i]>: ..."``.  With ``unique``
    a repeated identity in an earlier row is reported first, as DuplicateKey.
    """
    read = [_column(cells, rule, text) for rule, cells in zip(table.rules, columns)]
    bad = min(((len(values), i) for i, (values, error) in enumerate(read) if error), default=None)
    values = [v if bad is None else v[:bad[0]] for v, _ in read]
    if unique and len(set(zip(*values[:table.identity]))) < len(values[0]):
        seen: set = set()
        for row, key in enumerate(zip(*values[:table.identity])):
            if key in seen:
                raise DuplicateKey(f"{where(row)}: {table.duplicate.format(key)}")
            seen.add(key)
    if bad is not None:
        row, i = bad
        error = read[i][1]
        raise type(error)(f"{where(row)}: column {names[i]!r}: {error}")
    if table.record in (InternodeRecord, LeafRecord):
        return ColumnTable(table.record, values)
    # The record's fields are the columns: ``_make`` without its length check.
    return list(map(partial(tuple.__new__, table.record), zip(*values)))


def _sorted_rows(columns: list[Sequence], keys: list) -> list[Sequence]:
    """``columns`` with their rows sorted stably by ``keys``, one key per
    row; as they are when the rows are in that order already."""
    if keys == sorted(keys):
        return columns
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [list(map(column.__getitem__, order)) for column in columns]


def _csv_records(path: str | Path, table: _Table) -> list | ColumnTable:
    """The rows of one measurement CSV file (see :func:`_records`); extra
    columns are ignored."""
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
        rows = list(map(tuple, filter(None, reader)))  # blank lines skipped
    columns = [index[name] for name in table.names]
    width = max(columns) + 1
    short = None
    if rows and min(map(len, rows)) < width:  # reported after any fault in the rows above it
        short = next(i for i, row in enumerate(rows) if len(row) < width)
        length = len(rows[short])
        del rows[short:]
    cells = list(zip(*rows))
    del rows
    cells = [cells[i] for i in columns] if cells else [()] * len(table.names)
    records = _records(table, cells, True, table.names,
                       lambda row: f"{path}:{_line(path, row)}", unique=True)
    if short is not None:
        name = next(n for n, i in zip(table.names, columns) if i >= length)
        raise SchemaError(f"{path}:{_line(path, short)}: column {name!r}: missing cell")
    return records


def _line(path: Path, row: int) -> int:
    """The physical line that data row ``row`` of a CSV file ends on; blank
    lines are skipped as rows and counted as lines."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lines = (reader.line_num for cells in reader if cells)  # the header first
        return next(islice(lines, row + 1, None))


@_collector_paused()
def parse_measurements(
    axes_path: str | Path,
    gus_path: str | Path,
    internodes_path: str | Path,
    leaves_path: str | Path,
) -> MeasurementSet:
    """Parse and validate the four measurement files.

    Each file is checked on its own first; then every internode, then
    leaf, row must sit on a GU of the GU file, as :func:`tree_from_json`
    requires of a tree document.  Raises SchemaError for missing columns or
    malformed cells, UnitError for out-of-range cells, DuplicateKey for
    repeated identities and ValidationError for a row on a missing GU, each
    with the offending file and line.
    """
    paths = dict(zip(_TABLES, map(Path, (axes_path, gus_path, internodes_path, leaves_path))))
    ms = MeasurementSet(**{name: _csv_records(paths[name], table)
                           for name, table in _TABLES.items()})
    _check_sampled_gus(ms, lambda name, row: f"{paths[name]}:{_line(paths[name], row)}")
    return ms


def _check_sampled_gus(ms: MeasurementSet, where) -> None:
    """Raise ValidationError at the first internode, then leaf, row on a
    GU that ``ms.gus`` lacks, placed by ``where(table name, row)``."""
    gus = set(map(itemgetter(0, 1, 2), ms.gus))  # each GU's tree, axis and cycle
    for name in ("internodes", "leaves"):
        columns = _columns(getattr(ms, name), _TABLES[name])[:3]
        if not gus.issuperset(zip(*columns)):
            row, (_, axis_id, ca) = next((row, place) for row, place in enumerate(zip(*columns))
                                         if place not in gus)
            raise ValidationError(f"{where(name, row)}: record references unknown GU "
                                  f"({axis_id!r}, ca {ca})")


# -- samples per GU -------------------------------------------------------------

class GUSamples:
    """The measurement rows of one tree attached to its GUs: a per-GU slice table.

    Built by :func:`samples_by_gu`.  ``internodes`` and ``leaves`` map each
    measured field (``fresh_weight``, ``length``, ``diameter``; ``fresh_weight``,
    ``area``) to a column of that kind's rows, sorted stably by their GU's
    place in :meth:`~TreeTopology.iter_gus` order.  ``internode_rows`` and
    ``leaf_rows`` hold one slice per GU, in that order: a GU's rows are
    that slice of every column of the kind, in record order.
    """

    __slots__ = ("tree_id", "axis_gus", "internodes", "leaves", "internode_rows",
                 "leaf_rows")

    def __init__(self, tree_id: str, axis_gus: list[tuple[GrowthUnit, ...]],
                 internodes: tuple[dict[str, list], list[slice]],
                 leaves: tuple[dict[str, list], list[slice]]) -> None:
        self.tree_id = tree_id
        self.axis_gus = axis_gus  # each axis's GUs, axes in id order
        self.internodes, self.internode_rows = internodes
        self.leaves, self.leaf_rows = leaves

    def per_gu(self, topology: TreeTopology) -> Iterator[tuple[tuple[Axis, GrowthUnit],
                                                                slice, slice]]:
        """Each GU of ``topology`` with the slices of its internode and leaf rows.

        ``topology`` is the one the table was built on or a classification
        of it by :func:`with_physio_ages`; another tree raises TreeMismatch.
        """
        axes = self._axes(topology)
        return zip(((axis, gu) for axis in axes for gu in axis.gus), self.internode_rows,
                   self.leaf_rows)

    def top_gus(self, topology: TreeTopology) -> Iterator[tuple[Axis, slice, slice]]:
        """Each axis of ``topology``, in id order, with the slices of its top
        GU's internode and leaf rows; ``topology`` as for :meth:`per_gu`."""
        axes = self._axes(topology)
        tops = [end - 1 for end in accumulate(map(len, self.axis_gus))]
        return zip(axes, map(self.internode_rows.__getitem__, tops),
                   map(self.leaf_rows.__getitem__, tops))

    def _axes(self, topology: TreeTopology) -> list[Axis]:
        axes = topology.axes_sorted()
        if topology.tree_id != self.tree_id or [axis.gus for axis in axes] != self.axis_gus:
            raise TreeMismatch(f"GU table of tree {self.tree_id!r} does not match the GUs "
                               f"of tree {topology.tree_id!r}")
        return axes


def _attach(tree_id: str, place: dict, rows: Sequence,
            table: _Table) -> tuple[dict[str, list], list[slice]]:
    """One kind's rows as :class:`GUSamples` holds them, ``place`` giving
    each GU's index in ``iter_gus`` order by (axis id, cycle)."""
    trees, axis_ids, cycles, *_ = columns = _columns(rows, table)
    keys = list(map(place.get, zip(axis_ids, cycles)))
    if trees.count(tree_id) < len(keys) or None in keys:
        for tree, axis_id, ca, key in zip(trees, axis_ids, cycles, keys):
            if tree != tree_id:
                raise TreeMismatch(f"tree {tree_id!r}: record ({axis_id!r}, "
                                   f"ca {ca}) is of tree {tree!r}")
            if key is None:
                raise ValidationError(f"tree {tree_id!r}: record references "
                                      f"unknown GU ({axis_id!r}, ca {ca})")
    measured = _sorted_rows(columns[table.identity:], keys)
    counts = Counter(keys)
    bounds = list(accumulate(map(counts.get, range(len(place)), repeat(0)), initial=0))
    return (dict(zip(table.record._fields[table.identity:], measured)),
            list(map(slice, bounds, bounds[1:])))


@_collector_paused()
def samples_by_gu(topology: TreeTopology, internodes: Sequence[InternodeRecord],
                  leaves: Sequence[LeafRecord]) -> GUSamples:
    """Every GU of ``topology``, in :meth:`~TreeTopology.iter_gus` order, with its rows.

    The one place a measurement row is attached to a GU.  ``internodes``
    and ``leaves`` are a tree's rows, a :class:`ColumnTable` or a list of
    records each; no PA is needed.  Each kind's rows are sorted once, stably,
    by their GU's place, and each GU keeps the bounds of its slice.

    Raises:
        TreeMismatch: a record belongs to another tree.
        ValidationError: a record names a GU the tree lacks.
    """
    axes = topology.axes_sorted()
    gus = [(axis.id, gu.ca) for axis in axes for gu in axis.gus]
    place = dict(zip(gus, range(len(gus))))
    return GUSamples(topology.tree_id, [axis.gus for axis in axes],
                     _attach(topology.tree_id, place, internodes, _TABLES["internodes"]),
                     _attach(topology.tree_id, place, leaves, _TABLES["leaves"]))


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

        Every value but ``n_internodes`` is read as a float.

        Raises:
            SchemaError: the text is not JSON, lacks a key, or holds a value
                of the wrong type or range: a PA, CA or cycle key < 1, an
                ``n_internodes`` that is not an integer >= 1, or another
                value that is not finite and >= 0 (zeros come from a trace
                with no seed biomass) or is an integer no float can hold.
        """

        def checked(where: str, keys: Sequence[int], record):
            if min(keys) < 1:
                raise InvalidParameter(f"{where}: PA, CA and cycle keys must be >= 1")
            values = asdict(record)
            for name, value in values.items():
                if name == "n_internodes":
                    if type(value) is not int or value < 1:
                        raise InvalidParameter(
                            f"{where}: n_internodes must be an integer >= 1, got {value!r}")
                elif type(value) not in (int, float) or not 0 <= value < math.inf:
                    raise InvalidParameter(
                        f"{where}: {name} must be finite and >= 0, got {value!r}")
                else:
                    values[name] = _json_number(value, f"{where}: {name}")
            return type(record)(**values)

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


def _mean(column: Sequence[float], rows: Sequence[slice]) -> float:
    """The mean of ``column`` over the rows of ``rows``, summed in their order."""
    values = column[rows[0]] if len(rows) == 1 else list(
        chain.from_iterable(map(column.__getitem__, rows)))
    return sum(values) / len(values)


def build_target_series(measured: MeasurementSet | GUSamples,
                        topology: TreeTopology) -> TargetSeries:
    """Aggregate measurement rows into the fitting target of one tree.

    ``topology`` must be classified (see :func:`with_physio_ages`): each
    GU's group is its axis's PA and its own CA, and an axis without a PA
    raises MissingPA.  ``measured`` is the tree's MeasurementSet, attached
    to GUs by :func:`samples_by_gu`, or that per-GU table itself, built on
    ``topology`` or on the topology it classifies.  Entry means are
    arithmetic means over the rows of each (PA, CA) group.  Cumulated
    series extend the recorded means over the full recorded structure:
    each GU contributes mean internode weight times its internode count,
    and mean sampled leaf weight times its internode count (one blade per
    internode).  A GU or a group without samples inherits, with a warning,
    the mean of its group, else of its CA, else of the whole tree.
    """
    for axis in topology.axes_sorted():
        if axis.pa is None:
            raise MissingPA(f"axis {axis.id!r} has no PA; classify first")
    samples = (measured if isinstance(measured, GUSamples) else
               samples_by_gu(topology, measured.internodes, measured.leaves))
    columns = {"internodes": samples.internodes, "leaves": samples.leaves}

    # Each kind's rows per (PA, CA) group, and the GUs of each cycle, in GU order.
    groups: dict[str, dict] = {"internodes": {}, "leaves": {}}
    by_cycle: dict[int, list] = {}
    for item in samples.per_gu(topology):
        (axis, gu), inter_rows, leaf_rows = item
        group = (axis.pa, gu.ca)
        if inter_rows.start < inter_rows.stop:
            groups["internodes"].setdefault(group, []).append(inter_rows)
        if leaf_rows.start < leaf_rows.stop:
            groups["leaves"].setdefault(group, []).append(leaf_rows)
        by_cycle.setdefault(gu.ca, []).append(item)

    def inherited(kind: str, name: str, label: str, group: tuple[int, int],
                  gu: tuple[str, int] | None = None) -> float:
        """Mean ``name`` of ``group``'s ``kind`` rows, else its CA's, else the tree's.

        Warns unless the group's own mean is taken for the group; for a
        ``gu``, which has no rows of its own, it always warns.
        """
        column = columns[kind][name]
        key, rows = group, groups[kind].get(group)
        if rows is None:  # the rows of the group's CA
            slot = 1 if kind == "internodes" else 2
            key, rows = group[1], [item[slot] for item in by_cycle.get(group[1], ())
                                   if item[slot].start < item[slot].stop]
        if not rows:
            if not column:
                raise ValidationError(f"no {label} samples anywhere in the tree")
            key, rows = None, [slice(None)]
        value = _mean(column, rows)
        if gu is not None:
            logger.warning("no %s samples for GU %s; inheriting mean %.4g", label, gu, value)
        elif key != group:
            logger.warning("no %s samples for group PA%d/CA%d; inheriting mean %.4g",
                           label, group[0], group[1], value)
        return value

    # Per-(PA, CA) entries, over groups backed by internode rows.
    internodes = samples.internodes
    entries = {
        group: TargetEntry(
            mean_internode_weight=_mean(internodes["fresh_weight"], rows),
            mean_internode_length=_mean(internodes["length"], rows),
            mean_internode_diameter=_mean(internodes["diameter"], rows),
            mean_blade_weight=inherited("leaves", "fresh_weight", "leaf weight", group),
            mean_blade_area=inherited("leaves", "area", "leaf area", group),
            n_internodes=sum(s.stop - s.start for s in rows),
        )
        for group, rows in sorted(groups["internodes"].items())
    }

    # Cumulated series over the whole recorded structure.
    cumulated: dict[int, CumEntry] = {}
    cum_int = 0.0
    cum_blade = 0.0
    weights, blades = internodes["fresh_weight"], samples.leaves["fresh_weight"]
    for cycle in range(1, topology.age + 1):
        for (axis, gu), inter_rows, leaf_rows in by_cycle.get(cycle, ()):
            group = (axis.pa, gu.ca)
            n = inter_rows.stop - inter_rows.start
            weight = (sum(weights[inter_rows]) / n if n else
                      inherited("internodes", "fresh_weight", "internode weight", group,
                                (axis.id, gu.ca)))
            n = leaf_rows.stop - leaf_rows.start
            blade = (sum(blades[leaf_rows]) / n if n else
                     inherited("leaves", "fresh_weight", "leaf weight", group, (axis.id, gu.ca)))
            cum_int += weight * gu.internode_count
            cum_blade += blade * gu.internode_count
        cumulated[cycle] = CumEntry(cum_internode_mass=cum_int, cum_blade_mass=cum_blade)

    return TargetSeries(tree_id=topology.tree_id, entries=entries, cumulated=cumulated)


# -- canonical tree document --------------------------------------------------

def _measurement_columns(name: str, rows: Sequence) -> dict[str, Sequence]:
    """The tree.json object of table ``name``'s columns, one array per key,
    rows sorted by identity."""
    table = _TABLES[name]
    implied = len(table.names) - len(table.json_keys)  # tree_id, held once by the document
    columns = _columns(rows, table)[implied:]
    return dict(zip(table.json_keys,
                    _sorted_rows(columns, list(zip(*columns[:table.identity - implied])))))


def tree_to_json(topology: TreeTopology, ms: MeasurementSet) -> str:
    """Canonical single-tree document: structure plus measurement columns.

    The text is ``json.dumps(doc, sort_keys=True) + "\\n"`` of the document
    ``{"age", "axes": [{"axis_id", "gus": [{"ca", "internode_count",
    "leaf_scar_count"}], "insertion_ca", "parent_axis_id"}], "measurements":
    {"internodes": {"axis_id": [...], "diameter_mm": [...], "fresh_weight_g":
    [...], "gu_ca": [...], "length_cm": [...], "rank_in_gu": [...]},
    "leaves": {"area_cm2": [...], "axis_id": [...], "fresh_weight_g": [...],
    "gu_ca": [...], "sample_index": [...]}}, "tree_id"}``, all on one line:
    a measurement table is one array per key, its rows at the same place in
    every array, sorted by axis, cycle and rank or sample index.  Axis and
    GU objects take their keys from their tables in ``_TABLES``.  A value
    that is no JSON scalar raises ``json.dumps``'s ``TypeError``; a
    non-finite float is written ``NaN``, ``Infinity`` or ``-Infinity``.
    """
    gu_keys = _TABLES["gus"].json_keys  # named as the GrowthUnit fields
    gu_fields = attrgetter(*gu_keys)
    axes = [dict(zip(_TABLES["axes"].json_keys, (axis.id, axis.parent_id, axis.insertion_ca)),
                 gus=[dict(zip(gu_keys, gu_fields(gu))) for gu in axis.gus])
            for axis in topology.axes_sorted()]
    doc = {"age": topology.age, "axes": axes, "tree_id": topology.tree_id,
           "measurements": {name: _measurement_columns(name, getattr(ms, name))
                            for name in ("internodes", "leaves")}}
    return json.dumps(doc, sort_keys=True) + "\n"


def _json_cells(rows, keys: Sequence[str], where: str) -> list[list]:
    """The cells of each of ``keys`` in one tree.json table: the arrays of
    an object of columns, or gathered from a list of rows, the layout of
    earlier versions.  ``where`` names the table in errors."""
    if type(rows) is list:
        return [list(map(itemgetter(key), rows)) for key in keys]
    if type(rows) is not dict:
        raise SchemaError(f"{where}: not an object of columns or a list of rows: {rows!r}")
    for key in keys:
        if key not in rows:
            raise SchemaError(f"{where}: missing column {key!r}")
        if type(rows[key]) is not list:
            raise SchemaError(f"{where}: column {key!r} is not an array: {rows[key]!r}")
    columns = [rows[key] for key in keys]
    for key, column in zip(keys, columns):
        if len(column) != len(columns[0]):
            raise SchemaError(f"{where}: column {key!r} holds {len(column)} cells, "
                              f"column {keys[0]!r} {len(columns[0])}")
    return columns


@_collector_paused()
def tree_from_json(
    text: str, source: str = "tree document"
) -> tuple[TreeTopology, MeasurementSet]:
    """Parse :func:`tree_to_json` output; ``source`` names the input in errors.

    A measurement table is an object of columns, as :func:`tree_to_json`
    writes it, or a list of row objects, as earlier versions wrote it; both
    are read alike.  Every cell is read by the rule of its CSV column: text
    ids, integer cycles, counts, ranks and sample indices within bounds,
    finite positive measurements.  An error names the row by its place in
    the document (``axes[2].gus[0]``, ``measurements.leaves[5]``, the place
    in a column's array) and the cell by its key.

    Raises:
        SchemaError: the text is not JSON, lacks a key, or holds a value of
            the wrong type (an ``age`` that is no JSON integer included), or
            a measurement table is neither an object of equally long
            arrays, one per key, nor a list of rows.
        UnitError: a cell is out of range.
        DuplicateKey: an internode or a leaf sample is measured twice.
        ValidationError: the rows do not form a valid tree (the class
            :func:`build_topology` raises, its message after ``source``),
            its ``age`` is not the last GU cycle, or a measurement row names
            a GU the document lacks.
    """
    with schema_errors(source):
        doc = json.loads(text)
        tree_id = doc["tree_id"]
        age = doc["age"]
        if type(age) is not int:  # bool is no integer here
            raise TypeError(f"age must be an integer, got {age!r}")
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
            # Axes and GUs are lists by now; a measurement table may be either.
            cells = _json_cells(rows[name], table.json_keys, f"{source}: measurements.{name}")
            # The document implies tree_id, and a GU's axis_id by nesting.
            implied = ([tree_id] * len(cells[0]), gu_axes)[:len(table.names) - len(table.json_keys)]
            names = table.names[:len(implied)] + table.json_keys
            cells[:0] = implied
            # build_topology words a repeated axis or GU; measurements are checked here.
            setattr(ms, name, _records(table, cells, False, names, partial(where, name),
                                       unique=name in ("internodes", "leaves")))
            del cells  # no table's cells outlive its records
    try:
        topology = ms.topology()
    except ValidationError as exc:  # a broken tree rule keeps its class
        raise type(exc)(f"{source}: {exc}") from None
    if age != topology.age:
        raise ValidationError(f"{source}: age {age} is not the last GU cycle, {topology.age}")
    _check_sampled_gus(ms, where)
    return topology, ms
