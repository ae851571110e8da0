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
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ColumnRole",
    "Schema",
    "read_schema",
    "RawTable",
    "load_table",
    "write_table",
    "write_schema",
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


class ColumnRole(str, Enum):
    ID = "id"
    NUMERIC = "numeric"
    FACTOR = "factor"
    RESPONSE = "response"
    EXCLUDE = "exclude"


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
        return name in self.lenient


def _as_schema(schema) -> Schema:
    if isinstance(schema, Schema):
        return schema
    roles = {}
    default = None
    for name, role in dict(schema).items():
        role = ColumnRole(role)
        if name == "*":
            default = role
        else:
            roles[name] = role
    return Schema(roles=roles, default=default)


def read_schema(path) -> Schema:
    """Read a schema sidecar: one ``name<TAB>role[<TAB>lenient]`` line per column.

    A ``*`` name declares the default role.  Blank lines and ``#`` comments
    are skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"schema file not found: {path}")
    roles: dict[str, ColumnRole] = {}
    lenient = set()
    default = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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
        if name == "*":
            default = role
            continue
        if name in roles:
            raise ValueError(f"{path}:{lineno}: duplicate schema entry for column '{name}'")
        roles[name] = role
    return Schema(roles=roles, lenient=frozenset(lenient), default=default)


# ---------------------------------------------------------------------------
# RawTable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawTable:
    """Immutable typed columnar table.

    ``names``, ``roles`` and ``columns`` are parallel; numeric/response
    columns are float64 with NaN for missing cells, factor and exclude
    columns are object arrays of labels with ``None`` for missing, and the
    id column is int64 (or object of strings when ids are not integral).
    ``levels`` stores the ordered level list per factor column.
    """

    names: tuple
    roles: tuple
    columns: tuple
    levels: dict = field(default_factory=dict)
    audit: tuple = ()

    @classmethod
    def build(cls, names, roles, columns, levels=None, audit=()) -> "RawTable":
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
            if role in (ColumnRole.NUMERIC, ColumnRole.RESPONSE):
                norm_cols.append(np.asarray(col, dtype=np.float64))
            elif role is ColumnRole.FACTOR:
                col = np.asarray(col, dtype=object)
                observed = sorted({str(v) for v in col if v is not None})
                if levels and name in levels:
                    kept = tuple(lv for lv in levels[name] if lv in set(observed))
                    if set(kept) != set(observed):
                        raise ValueError(f"level list for factor '{name}' does not cover observed labels")
                    out_levels[name] = kept
                else:
                    out_levels[name] = tuple(observed)
                norm_cols.append(np.array([None if v is None else str(v) for v in col], dtype=object))
            elif role is ColumnRole.ID:
                norm_cols.append(np.asarray(col))
            else:
                norm_cols.append(np.asarray(col, dtype=object))
        return cls(names=names, roles=roles, columns=tuple(norm_cols),
                   levels=out_levels, audit=tuple(audit))

    # -- accessors ----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self.columns[0].shape[0]) if self.columns else 0

    def role_of(self, name: str) -> ColumnRole:
        try:
            return self.roles[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no column named '{name}'") from None

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.names.index(name)]

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

    def missing_count(self, name: str) -> int:
        col = self.column(name)
        role = self.role_of(name)
        if role in (ColumnRole.NUMERIC, ColumnRole.RESPONSE):
            return int(np.isnan(col).sum())
        if role is ColumnRole.ID:
            return 0
        return int(sum(1 for v in col if v is None))

    def with_audit(self, *lines) -> "RawTable":
        return replace(self, audit=self.audit + tuple(lines))

    def _subset_rows(self, mask_or_idx) -> "RawTable":
        cols = tuple(c[mask_or_idx] for c in self.columns)
        kept_levels = {}
        for name, lvls in self.levels.items():
            col = cols[self.names.index(name)]
            observed = {v for v in col if v is not None}
            kept_levels[name] = tuple(lv for lv in lvls if lv in observed)
        return replace(self, columns=cols, levels=kept_levels)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _parse_numeric(token: str, name: str, row: int, lenient: bool) -> float:
    token = token.strip()
    if token in MISSING_TOKENS:
        return math.nan
    try:
        value = float(token)
    except ValueError:
        if lenient:
            return math.nan
        raise ValueError(
            f"column '{name}', data row {row}: cannot parse {token!r} as numeric"
        ) from None
    if math.isinf(value):
        raise ValueError(f"column '{name}', data row {row}: non-finite value {token!r}")
    return value


def _parse_numeric_column(raw: list, name: str, lenient: bool) -> np.ndarray:
    """Parse a numeric column in one numpy call, which reads each token as
    ``float()`` does.  A column with a missing, non-finite or unparsable cell
    takes the per-cell path instead, so that cell gets its row's error."""
    try:
        values = np.array(raw, dtype=np.float64)
    except ValueError:
        pass
    else:
        if np.isfinite(values).all():
            return values
    return np.array([_parse_numeric(tok, name, i, lenient) for i, tok in enumerate(raw, start=1)],
                    dtype=np.float64)


def load_table(path, schema, delimiter: str = ",") -> RawTable:
    """Load a delimited text file (header row required) into a RawTable.

    Parameters
    ----------
    path : file path
        UTF-8 delimited text, first row holds column names.
    schema : Schema or mapping
        Column-name -> role map.  Every header must resolve to a role and
        every explicit schema entry must appear in the file.  Numeric parse
        failures raise unless the column is flagged lenient, in which case
        they become missing.  Empty cells and the literal ``NA`` are missing.
        Infinite values (``inf``, or a literal that overflows such as
        ``1e999``) always raise, naming the file, data row and column.
    delimiter : str
        Field separator, ``","`` by default (use ``"\\t"`` for tab files).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    schema = _as_schema(schema)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        rows = [r for r in reader if r]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise ValueError(f"{path}: duplicate column names: {', '.join(dupes)}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    unknown = sorted(set(schema.roles) - set(header))
    if unknown:
        raise ValueError(f"{path}: schema names columns not present in file: {', '.join(unknown)}")
    roles = [schema.role_of(name) for name in header]

    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {i} has {len(row)} fields, expected {len(header)}")

    columns = []
    for name, role, cells in zip(header, roles, zip(*rows)):
        raw = [tok.strip() for tok in cells]
        if role in (ColumnRole.NUMERIC, ColumnRole.RESPONSE):
            try:
                columns.append(_parse_numeric_column(raw, name, schema.is_lenient(name)))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        elif role is ColumnRole.ID:
            for i, tok in enumerate(raw, start=1):
                if tok in MISSING_TOKENS:
                    raise ValueError(f"column '{name}', data row {i}: id value is missing")
            try:
                columns.append(np.array([int(tok) for tok in raw], dtype=np.int64))
            except ValueError:
                columns.append(np.array(raw, dtype=object))
        else:
            columns.append(np.array(
                [None if tok in MISSING_TOKENS else tok for tok in raw], dtype=object))
    return RawTable.build(header, roles, columns)


def write_table(table: RawTable, path, delimiter: str = ",") -> Path:
    """Write a RawTable back to delimited text (missing cells become ``NA``)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(table.names)
        cells = []
        for col, role in zip(table.columns, table.roles):
            if role in (ColumnRole.NUMERIC, ColumnRole.RESPONSE):
                values = np.asarray(col, dtype=np.float64).tolist()
                cells.append(["NA" if math.isnan(v) else repr(v) for v in values])
            else:
                cells.append(["NA" if v is None else str(v) for v in col.tolist()])
        writer.writerows(zip(*cells))
    return path


def write_schema(table: RawTable, path) -> Path:
    """Write the table's roles as a schema sidecar."""
    path = Path(path)
    lines = [f"{name}\t{role.value}" for name, role in zip(table.names, table.roles)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
    out = RawTable.build(
        keep, kept_roles, [table.column(n_) for n_ in keep],
        levels={k: v for k, v in table.levels.items() if k in keep},
        audit=table.audit)
    return out.with_audit(*audit)


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
    for side, ids in (("left", ids_a), ("right", ids_b)):
        vals, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            dup = vals[counts > 1][0]
            raise ValueError(f"duplicate id {dup.item()!r} in the {side} table")
    overlap = (set(a.names) & set(b.names)) - {id_name}
    if overlap:
        raise ValueError(f"non-id columns present in both tables: {', '.join(sorted(overlap))}")

    common = np.intersect1d(ids_a, ids_b)
    if common.size == 0:
        raise ValueError("no common ids between the tables")
    common = np.sort(common)
    pos_a = {v: i for i, v in enumerate(ids_a.tolist())}
    pos_b = {v: i for i, v in enumerate(ids_b.tolist())}
    idx_a = np.array([pos_a[v] for v in common.tolist()], dtype=np.intp)
    idx_b = np.array([pos_b[v] for v in common.tolist()], dtype=np.intp)

    names = list(a.names) + [n for n in b.names if n != id_name]
    roles = [a.role_of(n) for n in a.names] + [b.role_of(n) for n in b.names if n != id_name]
    cols = [a.column(n)[idx_a] for n in a.names]
    cols += [b.column(n)[idx_b] for n in b.names if n != id_name]
    levels = dict(a.levels)
    levels.update(b.levels)
    audit = a.audit + b.audit + (
        f"merge_by_id on '{id_name}': kept {common.size} rows, "
        f"excluded {ids_a.size - common.size} left-only and {ids_b.size - common.size} right-only ids",)
    return RawTable.build(names, roles, cols, levels=levels, audit=audit)


def drop_incomplete_rows(table: RawTable) -> RawTable:
    """Remove every row with at least one missing cell (exclude-role columns ignored)."""
    n = table.n_rows
    missing = np.zeros(n, dtype=bool)
    for name, role, col in zip(table.names, table.roles, table.columns):
        if role in (ColumnRole.NUMERIC, ColumnRole.RESPONSE):
            missing |= np.isnan(col)
        elif role is ColumnRole.FACTOR:
            missing |= np.array([v is None for v in col], dtype=bool)
    removed = int(missing.sum())
    if removed == n:
        raise ValueError("empty dataset after NA omission")
    out = table._subset_rows(~missing)
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
    converted as well.  Levels are the sorted distinct values rendered as
    labels; more than ``max_levels`` distinct values is an error (a guard
    against exploding indicator counts).
    """
    targets = list(columns)
    for name in targets:
        if name not in table.names:
            raise KeyError(f"no column named '{name}'")
        if table.role_of(name) is not ColumnRole.NUMERIC:
            raise ValueError(f"column '{name}' is not numeric; cannot coerce to factor")
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
    levels = dict(table.levels)
    audit = []
    for name in targets:
        j = names.index(name)
        col = cols[j]
        distinct = np.unique(col[~np.isnan(col)])
        if distinct.size > max_levels:
            raise ValueError(
                f"column '{name}' has {distinct.size} distinct values; "
                f"refusing to coerce (max_levels={max_levels})")
        labels = [_format_level(v) for v in distinct]
        cols[j] = np.array([None if math.isnan(v) else _format_level(v) for v in col], dtype=object)
        roles[j] = ColumnRole.FACTOR
        levels[name] = tuple(labels)
        audit.append(f"coerce_to_factor: '{name}' -> factor with levels ({', '.join(labels)})")
    out = RawTable.build(names, roles, cols, levels=levels, audit=table.audit)
    return out.with_audit(*audit)


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
    def from_arrays(cls, X, y, names=None, row_ids=None, response_name="y") -> "DesignMatrix":
        """Build a design from a plain numeric predictor matrix (no intercept column).

        Each predictor column becomes its own numeric term; the intercept is
        prepended.  Handy for tests and array-based workflows.
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
        if row_ids is None:
            row_ids = np.arange(1, n + 1)
        full = np.column_stack([np.ones(n), X])
        terms = tuple(Term(name=nm, kind="numeric", columns=(j + 1,)) for j, nm in enumerate(names))
        return cls(X=full, y=np.asarray(y, dtype=np.float64),
                   column_names=("(Intercept)", *names), terms=terms,
                   row_ids=np.asarray(row_ids), response_name=response_name)

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

    def decode_factor(self, term_name: str) -> np.ndarray:
        """Recover the original labels of a factor term from its dummy block."""
        t = self.term(term_name)
        if t.kind != "factor":
            raise ValueError(f"term '{term_name}' is not a factor")
        block = self.X[:, list(t.columns)]
        out = np.empty(self.n_rows, dtype=object)
        for i in range(self.n_rows):
            hot = np.flatnonzero(block[i] == 1.0)
            if hot.size == 0 and np.all(block[i] == 0.0):
                out[i] = t.levels[0]
            elif hot.size == 1 and np.all(np.delete(block[i], hot[0]) == 0.0):
                out[i] = t.levels[1 + hot[0]]
            else:
                raise ValueError(f"row {i + 1}: dummy block of '{term_name}' is not a valid encoding")
        return out


def encode_design(table: RawTable) -> DesignMatrix:
    """Encode a fully observed table as a DesignMatrix.

    Numeric predictors are copied verbatim in table order; an L-level factor
    contributes L-1 indicator columns for levels 2..L (level 1 is the
    reference), named ``<column><level>``.  Requires a response column and
    no remaining missing cells.
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
    cols = [np.ones(n)]
    names = ["(Intercept)"]
    terms = []
    for name in table.predictor_names:
        role = table.role_of(name)
        if role is ColumnRole.NUMERIC:
            terms.append(Term(name=name, kind="numeric", columns=(len(cols),)))
            cols.append(table.column(name).astype(np.float64))
            names.append(name)
        else:
            levels = table.levels.get(name, ())
            if len(levels) < 2:
                raise ValueError(f"factor '{name}' has fewer than two observed levels")
            col = table.column(name)
            idx = tuple(range(len(cols), len(cols) + len(levels) - 1))
            for lv in levels[1:]:
                cols.append(np.array([1.0 if v == lv else 0.0 for v in col]))
                names.append(f"{name}{lv}")
            terms.append(Term(name=name, kind="factor", columns=idx, levels=tuple(levels)))
    y = table.column(table.response_name)
    if table.id_name is not None:
        row_ids = table.column(table.id_name)
    else:
        row_ids = np.arange(1, n + 1)
    return DesignMatrix(X=np.column_stack(cols), y=y, column_names=tuple(names),
                        terms=tuple(terms), row_ids=row_ids,
                        response_name=table.response_name)


def model_formula(term_names: Sequence[str], response: str) -> str:
    """Render ``response ~ term1 + term2 + ...`` (``response ~ 1`` when empty)."""
    if not term_names:
        return f"{response} ~ 1"
    return f"{response} ~ " + " + ".join(term_names)
