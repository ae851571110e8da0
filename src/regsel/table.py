"""Typed tabular data: ingestion, missing-data policies, factor coercion,
ID joins, and design-matrix encoding.

A :class:`RawTable` is an immutable columnar table where every column has a
role (``id``, ``numeric``, ``factor``, ``response`` or ``exclude``) and
missing values are explicit (``NaN`` for numeric data, ``None`` for factor
labels).  All transforms return new tables and append human-readable lines
to the table's ``audit`` trail.

:func:`encode_design` turns a fully observed table into a
:class:`DesignMatrix`: a dense float matrix with a leading intercept column,
numeric predictors copied verbatim, and each L-level factor expanded into
L-1 treatment-coded indicator columns (first level is the reference).
"""

from __future__ import annotations

import csv
import math
from contextlib import suppress
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ColumnRole",
    "Schema",
    "read_schema",
    "RawTable",
    "level_order",
    "load_table",
    "write_table",
    "write_schema",
    "format_values",
    "tsv_lines",
    "drop_sparse_columns",
    "merge_by_id",
    "drop_incomplete_rows",
    "coerce_to_factor",
    "encode_design",
    "Term",
    "DesignMatrix",
    "model_formula",
]

MISSING_TOKENS = ("", "NA")
# regsel's tables end fields and lines with these, so no column name or factor label may hold one
_BREAKS = "\t\r\n"


def _plain(text: str) -> bool:
    # float() and int() read "1_0" as 10 and "٣" as 3; neither is a number to regsel
    return "_" not in text and text.isascii()


def _number(token: str, kind=float):
    """``kind(token)`` if ``token`` is ASCII without ``_``, else ValueError: the one rule by which
    data cells, ids, factor labels, config values and option values become numbers."""
    if not _plain(token):
        raise ValueError(f"not a number: {token!r}")
    return kind(token)


class ColumnRole(str, Enum):
    ID = "id"
    NUMERIC = "numeric"
    FACTOR = "factor"
    RESPONSE = "response"
    EXCLUDE = "exclude"


_NUMERIC = (ColumnRole.NUMERIC, ColumnRole.RESPONSE)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schema:
    """Column-name -> role map with optional per-column lenient parsing.

    ``default`` (set via a ``*`` entry in a schema file) applies to headers
    not listed explicitly; without it, unknown headers are rejected.
    """

    roles: Mapping[str, ColumnRole]
    lenient: frozenset = frozenset()
    default: ColumnRole | None = None

    def role_of(self, name: str) -> ColumnRole:
        if name in self.roles:
            return self.roles[name]
        if self.default is not None:
            return self.default
        raise ValueError(f"column '{name}' has no role in the schema and no default role is declared")

    def is_lenient(self, name: str) -> bool:
        return name in self.lenient or (name not in self.roles and "*" in self.lenient)


def _as_schema(schema) -> Schema:
    if isinstance(schema, Schema):
        return schema
    roles = {name: ColumnRole(role) for name, role in dict(schema).items()}
    return Schema(default=roles.pop("*", None), roles=roles)


def _read_text(path: Path, kind: str) -> str:
    """The text of a UTF-8 ``kind`` file, a leading byte-order mark skipped.
    A missing file raises FileNotFoundError, and a byte that is not UTF-8 a
    ValueError naming the file and the line that holds the byte."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise FileNotFoundError(f"{kind} file not found: {path}") from None
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


def read_schema(path) -> Schema:
    """Read a schema sidecar: one ``name<TAB>role[<TAB>lenient]`` line per column.

    A ``*`` name declares the default role; like any name, it may appear
    once.  Blank lines and ``#`` comments are skipped.
    """
    path = Path(path)
    roles: dict[str, ColumnRole] = {}
    lenient = set()
    for lineno, raw in enumerate(_read_text(path, "schema").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 'name<TAB>role[<TAB>lenient]', got {raw!r}")
        name, role_token = parts[0].strip(), parts[1].strip()
        try:
            role = ColumnRole(role_token)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unknown role {role_token!r}") from None
        if len(parts) == 3:
            flag = parts[2].strip()
            if flag != "lenient":
                raise ValueError(f"{path}:{lineno}: unknown flag {flag!r} (only 'lenient' is allowed)")
            lenient.add(name)
        if name in roles:
            raise ValueError(f"{path}:{lineno}: duplicate schema entry for column '{name}'")
        roles[name] = role
    return Schema(default=roles.pop("*", None), roles=roles, lenient=frozenset(lenient))


def level_order(labels) -> tuple:
    """The distinct ``labels`` of a factor in level order, first the reference.

    Levels go in order of value when every label is a finite number by
    :func:`_number` (``"2" < "10"``, ``"-2" < "-1"``; ties such as ``"1"``
    and ``"1.0"`` go by label), and in label order otherwise (``"1_0"``).
    """
    distinct = sorted(set(labels))
    try:
        values = [_number(label) for label in distinct]
    except ValueError:
        return tuple(distinct)
    if not all(math.isfinite(v) for v in values):
        return tuple(distinct)
    return tuple(label for _, label in sorted(zip(values, distinct)))


# ---------------------------------------------------------------------------
# RawTable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawTable:
    """Immutable typed columnar table.

    ``names``, ``roles`` and ``columns`` are parallel; numeric/response
    columns are float64 with NaN for missing cells, factor and exclude
    columns are object arrays of labels with ``None`` for missing, and the
    id column is int64 (or object, such as strings, when ids are not integral).
    ``text`` holds, for a numeric or response column whose every cell
    :func:`load_table` parsed, the stripped input tokens as an object array,
    and ``None`` for every other column.  ``levels`` maps each factor column
    to its observed labels in :func:`level_order`, so a table rebuilt from
    the same labels (a row subset, a join, a reloaded checkpoint) has the
    same levels.
    """

    names: tuple
    roles: tuple
    columns: tuple
    text: tuple
    levels: dict = field(default_factory=dict)
    audit: tuple = ()

    @classmethod
    def build(cls, names, roles, columns, audit=(), text=None) -> "RawTable":
        names = tuple(names)
        roles = tuple(ColumnRole(r) for r in roles)
        columns = tuple(np.asarray(c) for c in columns)
        if not (len(names) == len(roles) == len(columns)):
            raise ValueError("names, roles and columns must have equal length")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if list(names).count(n) > 1})
            raise ValueError(f"duplicate column names: {', '.join(dupes)}")
        n_rows = {c.shape[0] for c in columns} if columns else {0}
        if len(n_rows) > 1:
            raise ValueError("all columns must have equal length")
        for role in (ColumnRole.ID, ColumnRole.RESPONSE):
            count = sum(1 for r in roles if r is role)
            if count > 1:
                raise ValueError(f"table declares {count} {role.value} columns; at most one is allowed")
        norm_cols = []
        out_levels = {}
        for name, role, col in zip(names, roles, columns):
            if role in _NUMERIC:
                norm_cols.append(np.asarray(col, dtype=np.float64))
            elif role is ColumnRole.FACTOR:
                col = np.array([None if v is None else str(v) for v in col], dtype=object)
                out_levels[name] = level_order({v for v in col if v is not None})
                norm_cols.append(col)
            elif role is ColumnRole.ID:     # integers, or else objects: no text id may match an integer
                norm_cols.append(col if col.dtype.kind in "iu" else col.astype(object, copy=False))
            else:
                norm_cols.append(np.asarray(col, dtype=object))
        text = tuple(t if r in _NUMERIC else None
                     for r, t in zip(roles, text or [None] * len(columns), strict=True))
        return cls(names=names, roles=roles, columns=tuple(norm_cols), text=text,
                   levels=out_levels, audit=tuple(audit))

    # -- accessors ----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self.columns[0].shape[0]) if self.columns else 0

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no column named '{name}'") from None

    def role_of(self, name: str) -> ColumnRole:
        return self.roles[self._index(name)]

    def column(self, name: str) -> np.ndarray:
        return self.columns[self._index(name)]

    def _name_of(self, role: ColumnRole):
        for name, r in zip(self.names, self.roles):
            if r is role:
                return name
        return None

    @property
    def id_name(self):
        return self._name_of(ColumnRole.ID)

    @property
    def response_name(self):
        return self._name_of(ColumnRole.RESPONSE)

    @property
    def predictor_names(self) -> tuple:
        return tuple(n for n, r in zip(self.names, self.roles)
                     if r in (ColumnRole.NUMERIC, ColumnRole.FACTOR))

    def missing_mask(self, name: str) -> np.ndarray:
        """True at each missing cell of the column (id cells are never missing)."""
        col = self.column(name)
        role = self.role_of(name)
        if role in _NUMERIC:
            return np.isnan(col)
        if role is ColumnRole.ID:
            return np.zeros(col.shape[0], dtype=bool)
        return np.equal(col, None)

    def missing_count(self, name: str) -> int:
        return int(self.missing_mask(name).sum())

    def with_audit(self, *lines) -> "RawTable":
        return replace(self, audit=self.audit + tuple(lines))


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _parse_numeric_column(raw: list, name: str, lenient: bool) -> tuple:
    """The values of a numeric column of stripped tokens, and its text.  A column of finite
    numbers parses in one numpy call, which reads each token as ``float()`` does, and keeps
    ``raw`` as its text.  Any other column goes cell by cell and keeps no text: a missing
    cell is NaN, and so is an unparsable cell of a lenient column; the first other bad cell
    raises, naming its row."""
    if _plain("".join(raw)):
        with suppress(ValueError):
            values = np.array(raw, dtype=np.float64)
            if np.isfinite(values).all():
                return values, np.array(raw, dtype=object)
    values = []
    for row, token in enumerate(raw, start=1):
        value = math.nan        # a missing cell, or an unparsable one in a lenient column
        if token not in MISSING_TOKENS:
            try:
                value = _number(token)
            except ValueError:
                if not lenient:
                    raise ValueError(f"column '{name}', data row {row}: cannot parse {token!r} as numeric") from None
            else:
                if not math.isfinite(value):
                    raise ValueError(f"column '{name}', data row {row}: non-finite value {token!r}")
        values.append(value)
    return np.array(values, dtype=np.float64), None


def load_table(path, schema, delimiter: str = ",") -> RawTable:
    """Load a delimited text file (header row required) into a RawTable.

    Parameters
    ----------
    path : file path
        UTF-8 delimited text, first row holds column names.  Each ValueError
        starts with the path; a bad byte or an overlong field names its line.
    schema : Schema or mapping
        Column-name -> role map.  Every header must resolve to a role and
        every explicit schema entry must appear in the file.  Numeric parse
        failures raise unless the column is flagged lenient, in which case
        they become missing.  Empty cells and the literal ``NA`` are missing.
        Non-finite values (``nan``, ``inf``, or a literal that overflows
        such as ``1e999``) always raise, naming the file, data row and column.
        A number holding ``_`` or a non-ASCII character (``1_0``, ``٣``) does
        not parse, and an id column holding one is text.
    delimiter : str
        Field separator, ``","`` by default (use ``"\\t"`` for tab files).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    try:
        schema = _as_schema(schema)
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = [h.strip() for h in next(reader)]
                rows = [r for r in reader if r]
            except StopIteration:
                raise ValueError("file is empty") from None
            except csv.Error as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
        if not rows:
            raise ValueError("no data rows")
        unknown = sorted(set(schema.roles) - set(header))
        if unknown:
            raise ValueError(f"schema names columns not present in file: {', '.join(unknown)}")
        roles = [schema.role_of(name) for name in header]
        for name, role in zip(header, roles):
            if not name or name[0] == "#" or any(c in name for c in _BREAKS + "\0") or (
                    "/" in name and role in (ColumnRole.NUMERIC, ColumnRole.FACTOR)):
                raise ValueError(f"column {name!r} cannot be written back: names must be non-empty, not start "
                                 "with '#', hold no tab, line break or NUL, and no '/' if numeric or factor")

        for i, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise ValueError(f"data row {i} has {len(row)} fields, expected {len(header)}")

        columns, text = [], {}
        for name, role, cells in zip(header, roles, zip(*rows)):
            raw = [tok.strip() for tok in cells]
            if role in _NUMERIC:
                values, text[name] = _parse_numeric_column(raw, name, schema.is_lenient(name))
                columns.append(values)
            elif role is ColumnRole.ID:
                for i, tok in enumerate(raw, start=1):
                    if tok in MISSING_TOKENS:
                        raise ValueError(f"column '{name}', data row {i}: id value is missing")
                try:
                    columns.append(np.array([_number(tok, int) for tok in raw], dtype=np.int64))
                except (ValueError, OverflowError):     # not int64: read as text
                    columns.append(np.array(raw, dtype=object))
            else:
                columns.append(np.array(
                    [None if tok in MISSING_TOKENS else tok for tok in raw], dtype=object))
        return RawTable.build(header, roles, columns, text=[text.get(name) for name in header])
    except UnicodeDecodeError:      # its position counts from a read chunk: _read_text names the line
        _read_text(path, "data")
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _quoted(cell: str) -> str:
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_table(table: RawTable, path) -> Path:
    """Write a RawTable as comma-separated text with CRLF line ends, quoted as
    :mod:`csv` quotes it.  A numeric cell kept as ``text`` is written as that
    text; every other cell goes through :func:`format_values` (a missing cell
    is ``NA``)."""
    path = Path(path)
    cells = [format_values(c) if t is None else t.tolist() for c, t in zip(table.columns, table.text)]
    for j, role in enumerate(table.roles):
        if role not in _NUMERIC:        # numbers, NA and inf never need quotes
            cells[j] = list(map(_quoted, cells[j]))
    empty = '""' if len(table.names) == 1 else ""   # a lone empty field is quoted, not a blank line
    with path.open("w", newline="", encoding="utf-8") as fh:
        for line in chain([",".join(map(_quoted, table.names))], map(",".join, zip(*cells))):
            fh.write((line or empty) + "\r\n")
    return path


def write_schema(table: RawTable, path) -> Path:
    """Write the table's roles as a schema sidecar."""
    path = Path(path)
    lines = [f"{name}\t{role.value}" for name, role in zip(table.names, table.roles)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def format_values(values) -> list:
    """The cells of one column as text, as every table regsel writes them:
    NaN or ``None`` as ``NA``, anything else with ``str``, which for a float
    is its shortest round-trip ``repr`` (``inf`` for infinity).

    Values go through ``tolist()`` first, so a numpy scalar is written as the
    Python number it holds, never as numpy's ``repr`` of it.
    """
    return ["NA" if v is None or v != v else str(v) for v in np.asarray(values).tolist()]


def tsv_lines(header, *columns, preamble=()) -> list:
    """A tab-separated table as lines: ``preamble``, the ``header`` names, then
    one line per row of ``columns``, each cell through :func:`format_values`."""
    rows = zip(*map(format_values, columns), strict=True)
    return [*preamble, "\t".join(header), *map("\t".join, rows)]


# ---------------------------------------------------------------------------
# Missing-data policies and coercion
# ---------------------------------------------------------------------------


def drop_sparse_columns(table: RawTable, ratio: float) -> RawTable:
    """Drop every predictor column whose missing count is >= ratio * n_rows.

    The comparison is ``>=`` (not ``>``), so ratio 0 removes every predictor
    and raises.  Id and response columns are never candidates.  Dropped
    columns are recorded in the audit with their missing counts.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    if table.n_rows == 0:
        raise ValueError("table has no rows")
    n = table.n_rows
    threshold = ratio * n
    keep, audit = [], []
    for name, role in zip(table.names, table.roles):
        if role in (ColumnRole.NUMERIC, ColumnRole.FACTOR):
            miss = table.missing_count(name)
            if miss >= threshold:
                audit.append(f"drop_sparse_columns: dropped '{name}' ({miss}/{n} missing, ratio {ratio})")
                continue
        keep.append(name)
    kept_roles = [table.role_of(n_) for n_ in keep]
    if not any(r in (ColumnRole.NUMERIC, ColumnRole.FACTOR) for r in kept_roles):
        raise ValueError("no predictors remain after dropping sparse columns")
    out = RawTable.build(keep, kept_roles, [table.column(n_) for n_ in keep], audit=table.audit,
                         text=[table.text[table.names.index(n_)] for n_ in keep])
    return out.with_audit(*audit)


def _take_rows(table: RawTable, rows) -> tuple:
    """The table's columns and their text at ``rows``, indices or a mask."""
    return [c[rows] for c in table.columns], [None if t is None else t[rows] for t in table.text]


def merge_by_id(a: RawTable, b: RawTable) -> RawTable:
    """Inner join two tables on their shared id column.

    Ids present in only one table are excluded and counted in the audit;
    the result is sorted ascending by id.  Duplicate ids within either
    input are an error, as are overlapping non-id column names.
    """
    if a.id_name is None or b.id_name is None:
        raise ValueError("both tables must have an id column to merge")
    if a.id_name != b.id_name:
        raise ValueError(f"id columns differ: '{a.id_name}' vs '{b.id_name}'")
    id_name = a.id_name
    ids_a, ids_b = a.column(id_name), b.column(id_name)
    if (ids_a.dtype == object) != (ids_b.dtype == object):
        sides = ("left", "right") if ids_a.dtype == object else ("right", "left")
        raise ValueError(f"id column '{id_name}' holds text in the {sides[0]} table and "
                         f"integers in the {sides[1]} table, so no id can match")
    for side, ids in (("left", ids_a), ("right", ids_b)):
        vals, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"duplicate id {vals[counts > 1].tolist()[0]!r} in the {side} table")
    overlap = (set(a.names) & set(b.names)) - {id_name}
    if overlap:
        raise ValueError(f"non-id columns present in both tables: {', '.join(sorted(overlap))}")

    # sorted common ids and their positions; the checks above make the ids unique
    common, idx_a, idx_b = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)
    if common.size == 0:
        raise ValueError("no common ids between the tables")

    names = list(a.names) + [n for n in b.names if n != id_name]
    roles = [a.role_of(n) for n in a.names] + [b.role_of(n) for n in b.names if n != id_name]
    (cols, text), (cols_b, text_b) = _take_rows(a, idx_a), _take_rows(b, idx_b)
    del cols_b[b.names.index(id_name)], text_b[b.names.index(id_name)]
    audit = a.audit + b.audit + (
        f"merge_by_id on '{id_name}': kept {common.size} rows, "
        f"excluded {ids_a.size - common.size} left-only and {ids_b.size - common.size} right-only ids",)
    return RawTable.build(names, roles, cols + cols_b, audit=audit, text=text + text_b)


def drop_incomplete_rows(table: RawTable) -> RawTable:
    """Remove every row with at least one missing cell (exclude-role columns ignored)."""
    n = table.n_rows
    missing = np.zeros(n, dtype=bool)
    for name, role in zip(table.names, table.roles):
        if role is not ColumnRole.EXCLUDE:
            missing |= table.missing_mask(name)
    removed = int(missing.sum())
    if removed == n:
        raise ValueError("empty dataset after NA omission")
    cols, text = _take_rows(table, ~missing)
    out = RawTable.build(table.names, table.roles, cols, audit=table.audit, text=text)
    return out.with_audit(f"drop_incomplete_rows: removed {removed} of {n} rows")


def _format_level(value: float) -> str:
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def coerce_to_factor(table: RawTable, columns: Sequence[str] = (),
                     auto: bool = False, max_levels: int = 12) -> RawTable:
    """Convert numeric columns to factors.

    Explicitly named columns are always converted; with ``auto=True``,
    numeric columns whose non-missing values are a subset of {0, 1} are
    converted as well.  Levels are the distinct values rendered as labels,
    which :func:`level_order` orders by value; more than ``max_levels``
    distinct values is an error (a guard against exploding indicator counts).
    """
    targets = list(columns)
    for name in targets:
        if table.role_of(name) is not ColumnRole.NUMERIC:
            raise ValueError(f"column '{name}' is not numeric; cannot coerce to factor")
        if targets.count(name) > 1:
            raise ValueError(f"column '{name}' is listed twice")
    if auto:
        for name, role in zip(table.names, table.roles):
            if role is not ColumnRole.NUMERIC or name in targets:
                continue
            col = table.column(name)
            values = np.unique(col[~np.isnan(col)])
            if values.size and np.isin(values, (0.0, 1.0)).all():
                targets.append(name)
    if not targets:
        return table

    names = list(table.names)
    roles = list(table.roles)
    cols = list(table.columns)
    for name in targets:
        j = names.index(name)
        col = cols[j]
        distinct = np.unique(col[~np.isnan(col)])
        if distinct.size > max_levels:
            raise ValueError(
                f"column '{name}' has {distinct.size} distinct values; "
                f"refusing to coerce (max_levels={max_levels})")
        cols[j] = np.array([None if math.isnan(v) else _format_level(v) for v in col], dtype=object)
        roles[j] = ColumnRole.FACTOR
    out = RawTable.build(names, roles, cols, audit=table.audit, text=table.text)     # drops a factor's text
    return out.with_audit(*(f"coerce_to_factor: '{name}' -> factor with levels "
                            f"({', '.join(out.levels[name])})" for name in targets))


# ---------------------------------------------------------------------------
# Design matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One selection unit: a numeric column or a whole factor's dummy block."""

    name: str
    kind: str                     # "numeric" | "factor"
    columns: tuple                # design column indices
    levels: tuple = ()            # factor levels, first is the reference


@dataclass(frozen=True)
class DesignMatrix:
    """Encoded regression data: X (intercept first), response y, term groups.

    Treated as immutable after construction; row and term subsets come back
    as new instances.
    """

    X: np.ndarray
    y: np.ndarray
    column_names: tuple
    terms: tuple
    row_ids: np.ndarray
    response_name: str = "y"

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("X must be a nonempty 2-d matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("y length must match the number of rows of X")
        if len(self.column_names) != X.shape[1]:
            raise ValueError("column_names length must match the number of columns of X")
        for kind, names in (("design columns", self.column_names), ("terms", self.term_names)):
            if len(set(names)) < len(names):
                repeat = next(name for i, name in enumerate(names) if name in names[:i])
                raise ValueError(f"two {kind} are named {repeat!r}")
        if not np.all(X[:, 0] == 1.0):
            raise ValueError("first design column must be the all-ones intercept")
        for values, names in ((y[:, None], (self.response_name,)), (X, self.column_names)):
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"column '{names[j]}', row {i + 1}: non-finite value {values[i, j]}")
        seen = [0]
        for t in self.terms:
            seen.extend(t.columns)
        if sorted(seen) != list(range(X.shape[1])):
            raise ValueError("every non-intercept column must belong to exactly one term group")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_arrays(cls, X, y, names=None, response_name="y") -> "DesignMatrix":
        """Build a design from a plain numeric predictor matrix (no intercept column).

        Each predictor column becomes its own numeric term; the intercept is
        prepended and rows are numbered 1..n.  Handy for tests and
        array-based workflows.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[0] == 1 and np.asarray(y).shape[0] != 1:
            X = X.T
        n, p = X.shape
        if names is None:
            names = [f"x{j + 1}" for j in range(p)]
        names = list(names)
        if len(names) != p:
            raise ValueError("names length must match the number of predictor columns")
        full = np.column_stack([np.ones(n), X])
        terms = tuple(Term(name=nm, kind="numeric", columns=(j + 1,)) for j, nm in enumerate(names))
        return cls(X=full, y=np.asarray(y, dtype=np.float64),
                   column_names=("(Intercept)", *names), terms=terms,
                   row_ids=np.arange(1, n + 1), response_name=response_name)

    # -- shape ----------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]

    @property
    def term_names(self) -> tuple:
        return tuple(t.name for t in self.terms)

    def term(self, name: str) -> Term:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(f"no term named '{name}'")

    # -- subsetting -----------------------------------------------------------

    def subset_terms(self, term_names: Iterable[str]) -> "DesignMatrix":
        """New design containing the intercept plus the named terms.

        Terms keep the ordering they have in this design regardless of the
        order given.
        """
        wanted = set(term_names)
        unknown = wanted - set(self.term_names)
        if unknown:
            raise KeyError(f"unknown terms: {', '.join(sorted(unknown))}")
        cols = [0]
        new_terms = []
        names = [self.column_names[0]]
        for t in self.terms:
            if t.name not in wanted:
                continue
            start = len(cols)
            cols.extend(t.columns)
            names.extend(self.column_names[c] for c in t.columns)
            new_terms.append(replace(t, columns=tuple(range(start, start + len(t.columns)))))
        return DesignMatrix(X=self.X[:, cols], y=self.y, column_names=tuple(names),
                            terms=tuple(new_terms), row_ids=self.row_ids,
                            response_name=self.response_name)

    def take_rows(self, indices) -> "DesignMatrix":
        indices = np.asarray(indices)
        return DesignMatrix(X=self.X[indices], y=self.y[indices],
                            column_names=self.column_names, terms=self.terms,
                            row_ids=self.row_ids[indices], response_name=self.response_name)

    def drop_rows(self, indices) -> "DesignMatrix":
        indices = np.asarray(indices, dtype=np.intp)
        n = self.n_rows
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise IndexError(f"row indices out of range for {n} rows")
        keep = np.setdiff1d(np.arange(n), indices)
        if keep.size == 0:
            raise ValueError("dropping all rows leaves an empty design")
        return self.take_rows(keep)

    # -- decoding -------------------------------------------------------------

    def level_codes(self, term_name: str) -> np.ndarray:
        """Each row's level index in a factor term's ``levels``, read from its
        dummy block: 0 for an all-zero row, k for a 1 in the k-th column only."""
        t = self.term(term_name)
        if t.kind != "factor":
            raise ValueError(f"term '{term_name}' is not a factor")
        block = self.X[:, list(t.columns)]
        hot = block == 1.0
        bad = np.flatnonzero((hot.sum(axis=1) > 1) | ~(hot | (block == 0.0)).all(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0] + 1}: dummy block of '{term_name}' is not a valid encoding")
        return hot @ np.arange(1, block.shape[1] + 1, dtype=np.intp)

    def decode_factor(self, term_name: str) -> np.ndarray:
        """Recover the original labels of a factor term from its dummy block."""
        return np.array(self.term(term_name).levels, dtype=object)[self.level_codes(term_name)]


def encode_design(table: RawTable) -> DesignMatrix:
    """Encode a fully observed table as a DesignMatrix.

    Numeric predictors are copied verbatim in table order; an L-level factor
    contributes L-1 indicator columns for levels 2..L (level 1 is the
    reference), named ``<column><level>``, so no level label may hold a tab
    or line break and no such name may repeat another column's name.
    Requires a response column and no remaining missing cells.
    """
    if table.response_name is None:
        raise ValueError("table has no response column")
    if not table.predictor_names:
        raise ValueError("table has no predictor columns")
    for name in table.names:
        if table.role_of(name) is ColumnRole.EXCLUDE:
            continue
        if table.missing_count(name):
            raise ValueError(f"column '{name}' still contains missing cells; drop or fill them before encoding")

    n = table.n_rows
    blocks = [np.ones((n, 1))]
    names = ["(Intercept)"]
    terms = []
    for name in table.predictor_names:
        if table.role_of(name) is ColumnRole.NUMERIC:
            terms.append(Term(name=name, kind="numeric", columns=(len(names),)))
            blocks.append(table.column(name).astype(np.float64)[:, None])
            names.append(name)
        else:
            levels = table.levels[name]
            if len(levels) < 2:
                raise ValueError(f"factor '{name}' has fewer than two observed levels")
            for label in levels:
                if any(c in label for c in _BREAKS):
                    raise ValueError(f"factor '{name}' has the level {label!r}: a label holding "
                                     "a tab or line break cannot name a column of regsel's reports")
            idx = tuple(range(len(names), len(names) + len(levels) - 1))
            code = {label: k for k, label in enumerate(levels)}
            codes = np.array([code[v] for v in table.column(name)], dtype=np.intp)
            blocks.append((codes[:, None] == np.arange(1, len(levels))).astype(np.float64))
            names.extend(f"{name}{lv}" for lv in levels[1:])
            terms.append(Term(name=name, kind="factor", columns=idx, levels=levels))
    y = table.column(table.response_name)
    if table.id_name is not None:
        row_ids = table.column(table.id_name)
    else:
        row_ids = np.arange(1, n + 1)
    return DesignMatrix(X=np.hstack(blocks), y=y, column_names=tuple(names),
                        terms=tuple(terms), row_ids=row_ids,
                        response_name=table.response_name)


def model_formula(term_names: Sequence[str], response: str) -> str:
    """Render ``response ~ term1 + term2 + ...`` (``response ~ 1`` when empty)."""
    if not term_names:
        return f"{response} ~ 1"
    return f"{response} ~ " + " + ".join(term_names)
