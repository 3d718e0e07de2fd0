"""Exception hierarchy shared across the toolkit.

``ValidationError`` subclasses signal bad input data or configuration and map
to exit code 1 in the command line front end; runtime model failures derive
from ``FspmError`` directly and map to exit code 3.
"""
from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Iterator, Sequence


class FspmError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FspmError):
    """Invalid input data, file contents, or configuration."""


# -- topology ---------------------------------------------------------------

class InvalidTopology(ValidationError):
    """Structural rule violated (no root, multiple roots, empty axis...)."""


class DanglingParent(ValidationError):
    """An axis names a parent id that was never declared."""


class CycleDetected(ValidationError):
    """Parent links do not form a tree."""


class NonContiguousCA(ValidationError):
    """Gap or duplicate in the growth-cycle sequence of an axis."""


class BadInsertion(ValidationError):
    """Child axis does not attach to an existing parent growth unit."""


class CycleOutOfRange(ValidationError):
    """Requested growth cycle outside 1..age."""


# -- ingest -----------------------------------------------------------------

class SchemaError(ValidationError):
    """Missing or malformed column in a measurement file, or a malformed
    JSON document."""


class UnitError(ValidationError):
    """Nonpositive or otherwise physically impossible measured value."""


class DuplicateKey(ValidationError):
    """Two records share a key that must be unique."""


class MissingPA(ValidationError):
    """An axis has no physiological age assignment where one is required."""


# -- physiological age classification ---------------------------------------

class NoTerminalData(ValidationError):
    """An axis has no internode records in its topmost growth unit."""


class KTooLarge(ValidationError):
    """More clusters requested than distinct values available."""


class MainAxisNotHeaviest(ValidationError):
    """The main stem did not land in the heaviest weight cluster."""


# -- direct estimation --------------------------------------------------------

class InsufficientData(ValidationError):
    """Too few observations for the requested regression."""


class DegenerateSpread(ValidationError):
    """Regressor values carry no spread (all equal)."""


# -- engine -------------------------------------------------------------------

class InvalidParameter(ValidationError):
    """Model parameter that is not finite or lies outside its range."""


class ZeroDemandWithBiomass(FspmError):
    """Biomass available to allocate but total sink demand is zero."""


class LengthOverflow(FspmError):
    """An internode's allometric length b * P**beta overflows a float."""


class NonFiniteState(FspmError):
    """A cycle's demand or leaf surface, or an internode's diameter, is not finite."""


class UnsupportedRingMode(ValidationError):
    """Ring distribution mode not available in the requested engine mode."""


class SimulationFailed(FspmError):
    """A simulation inside a fitting loop raised; wraps the cause."""


# -- calibration --------------------------------------------------------------

class InfeasibleInit(ValidationError):
    """Initial parameter guess not finite or outside the declared bounds."""


# -- export -------------------------------------------------------------------

class TreeMismatch(ValidationError):
    """A trace and the targets or topology it is paired with belong to different trees."""


@contextlib.contextmanager
def schema_errors(source: str) -> Iterator[None]:
    """Report a malformed JSON document as one SchemaError naming ``source``.

    Covers invalid JSON, arrays or objects nested too deeply for the decoder
    (``RecursionError``), a missing key, and a value of the wrong type, form
    or range (``TypeError``, ``ValueError``, ``AttributeError``,
    ``InvalidParameter``).
    """
    try:
        yield
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source}: not valid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{source}: not valid JSON (nested too deeply to decode)") from None
    except KeyError as exc:
        raise SchemaError(f"{source}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, InvalidParameter) as exc:
        raise SchemaError(f"{source}: {exc}") from None


def _object_once(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; a key given twice in it raises ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"key {key!r} appears twice in one object")
    return obj


def _json_loads(text: str):
    """``json.loads`` of ``text``, but a key repeated in one object raises
    ValueError, which :func:`schema_errors` reports with the file."""
    return json.loads(text, object_pairs_hook=_object_once)


def _given_once(tree_ids: Sequence[str]) -> None:
    """Raise ValidationError for the first tree id that repeats an earlier one."""
    for i, tree_id in enumerate(tree_ids):
        if tree_id in tree_ids[:i]:
            raise ValidationError(f"tree {tree_id!r} is given more than once")


def _json_number(value, where: str) -> float:
    """A JSON number as a float; ``true`` and ``"5.0"`` are not numbers, nor
    is an integer beyond the range of a float, such as ``10**400``.

    Raises TypeError or ValueError, which :func:`schema_errors` reports with
    the file.
    """
    if type(value) not in (int, float):
        raise TypeError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} must be a number that a float can hold, "
                         f"got an integer of {len(str(abs(value)))} digits") from None


def _json_key(key: str, where: str) -> int:
    """A PA, CA or cycle key of a JSON object as the integer >= 1 it names.

    The key must be written as ``str`` writes the integer, so no two keys
    name one: ``"01"``, ``" 2"``, ``"1_0"`` and ``"+1"`` name none.  Raises
    ValueError, which :func:`schema_errors` reports with the file.
    """
    n = int(key) if key.isascii() and key.removeprefix("-").isdigit() else None
    if n is None or str(n) != key:
        raise ValueError(f"{where}: key {key!r} is not an integer as str() writes it")
    if n < 1:
        raise ValueError(f"{where}: PA, CA and cycle keys must be >= 1")
    return n


@contextlib.contextmanager
def utf8_errors(source: str | Path) -> Iterator[None]:
    """Report bytes that are not UTF-8 as one SchemaError naming ``source``.

    Text files are decoded in chunks, so the position the decoder reports
    is not one in the file; the message gives the file and the reason only.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{source}: not UTF-8 text ({exc.reason})") from None


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; other bytes raise a SchemaError."""
    with utf8_errors(path):
        return Path(path).read_text(encoding="utf-8")
