"""Property tests of the checkpoint format, the OLS core, VIF pruning and CV.

Random tables check that the pipeline's checkpoint format (``write_table``
and ``write_schema``, read back by ``read_schema`` and ``load_table``)
reproduces every cell, that ``write_table`` writes the bytes ``csv.writer``
writes, and that encoding the table the prep stage hands over gives the
design parsing its files gives, also when its numeric cells keep the text
they were read from.  For the OLS core each example
draws a design shape and a seed for its values.  Designs with one exactly
duplicated column and factors check the rank/leverage identity and the
PRESS = leave-one-out identity; designs with and without a factor level
held by one row check that every deletion diagnostic is NaN exactly at a
row fit exactly and the delete-one refit value elsewhere; designs with
near-collinear columns check VIFs and the prune trail against auxiliary
regressions, and on small ones the AIC of fits and of stepwise traces
against an 80-digit reference.
Tables of constant, random and copied numeric columns beside factors check
that prune passes every design that encoding accepts.  Nested candidate sets over a factor
with rare levels check Monte Carlo CV against literal refits, and against
refits of each training split encoded on its own when the rare levels
include the reference level.  Valid data files, schemas and configs, mutated
byte by byte and cell by cell, check that each reader loads its input or
raises an error that names the file; small data files with cells replaced,
padded and quoted check that load_table reads what the reference reader of
README's grammar reads, and rejects what it rejects; pairs of tables with
repeated, unmatched and differently typed ids check that merge_by_id joins
what the reference join joins, and rejects what it rejects.
"""

import codecs
import math
import tempfile
import traceback
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regsel import (CVConfig, ColumnRole, DesignMatrix, RawTable, Schema, coerce_to_factor,
                    cooks_distance, dffits, drop_incomplete_rows, encode_design, fit_ols,
                    fit_statistics, load_table, mc_cross_validate, merge_by_id, press_residuals,
                    read_config, read_schema, step_select_modes, studentized, vif_prune,
                    write_schema, write_table)
from regsel.influence import _LEVERAGE_EPS
from oracles import (aic_error_bound, assert_same_design, csv_module_bytes, loo_diagnostics,
                     loo_predictions, one_row_level_design, prune_by_auxiliary_regression,
                     reencoded_cv_mspe, reference_aic, reference_join, reference_table,
                     refit_cv_mspe, unseen_level_rows)

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


# Cells as the pipeline writes them: any finite float or NaN (written ``NA``),
# and factor labels that are stripped, non-empty and not ``NA``, because
# load_table strips every cell and reads ``NA`` as missing.  NUL is left out:
# the csv reader of Python 3.10 rejects it.
NUMBERS = st.one_of(st.floats(allow_infinity=False),
                    st.sampled_from([math.nan, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                                     1.7976931348623157e308, -1e-300, 1e300]))
LABELS = st.one_of(
    st.sampled_from(["a,b", '"q"', 'x""y', "it's", 'a, "b"', "é", "名前", "Ω,\"ß\"", "a\nb"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
            min_size=1, max_size=8),
).map(str.strip).filter(lambda label: label and label != "NA")


@st.composite
def checkpoint_tables(draw):
    """A table with an integer or string id, numeric and factor columns
    (missing cells allowed) and a response; the first numeric column may be
    coerced to a factor."""
    n = draw(st.integers(1, 12))
    column = lambda cells: draw(st.lists(cells, min_size=n, max_size=n))
    if draw(st.booleans()):
        ids = column(st.integers(-2 ** 63, 2 ** 63 - 1))
    else:
        ids = np.array(["id-" + label for label in column(LABELS)], dtype=object)
    n_num, n_fac = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    names = ["id", *(f"x{j}" for j in range(n_num)), *(f"f{j}" for j in range(n_fac)), "y"]
    roles = ["id", *["numeric"] * n_num, *["factor"] * n_fac, "response"]
    columns = [ids, *(column(NUMBERS) for _ in range(n_num)),
               *(column(st.none() | LABELS) for _ in range(n_fac)), column(NUMBERS)]
    table = RawTable.build(names, roles, columns)
    if n_num and draw(st.booleans()):
        table = coerce_to_factor(table, ["x0"])     # n <= 12 values, within max_levels
    return table


@PROPERTY_SETTINGS
@given(checkpoint_tables())
@example(coerce_to_factor(RawTable.build(["id", "x0", "y"], ["id", "numeric", "response"],
                                         [[1, 2, 3], [10.0, -1.0, 2.0], [0.0, 0.0, 0.0]]), ["x0"]))
def test_checkpoint_round_trip_is_exact(table):
    with tempfile.TemporaryDirectory() as tmp:
        back = load_table(write_table(table, Path(tmp) / "prep.csv"),
                          read_schema(write_schema(table, Path(tmp) / "prep.schema")))
    assert back.names == table.names and back.roles == table.roles
    assert back.levels == table.levels
    for name, role, want, got in zip(table.names, table.roles, table.columns, back.columns):
        if role.value in ("numeric", "response"):
            assert np.array_equal(np.isnan(got), np.isnan(want)), name
            ok = ~np.isnan(want)
            assert np.array_equal(got[ok].view(np.int64), want[ok].view(np.int64)), name
        else:
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name


@PROPERTY_SETTINGS
@given(checkpoint_tables())
def test_handed_over_design_equals_a_parse(table):
    """The prep stage hands the table it wrote to the later stages in place of
    ``prep.csv``; encoding it must give what parsing the files gives, or the
    same error."""
    try:
        table = drop_incomplete_rows(table)
    except ValueError:
        return      # every row has a missing cell: prep stops before writing
    with tempfile.TemporaryDirectory() as tmp:
        parsed = load_table(write_table(table, Path(tmp) / "prep.csv"),
                            read_schema(write_schema(table, Path(tmp) / "prep.schema")))
    encoded = []
    for t in (table, parsed):
        try:
            encoded.append(encode_design(t))
        except ValueError as exc:
            encoded.append(str(exc))
    handed, fresh = encoded
    if isinstance(handed, str) or isinstance(fresh, str):
        assert handed == fresh
    else:
        assert_same_design(handed, fresh)


# Spellings of a float that read back as it: repr, and forms other writers
# use (trailing zeros as in ``1.50``, a capital exponent, a leading sign).
SPELLINGS = (repr, "{:.17g}".format, "{:.20E}".format, "{:+.17e}".format)


@st.composite
def spelled_tables(draw):
    """A checkpoint table whose numeric columns without a missing cell are
    written in drawn SPELLINGS and read back, so it carries their text."""
    table = draw(checkpoint_tables())
    text = [np.array([draw(st.sampled_from(SPELLINGS))(v) for v in col.tolist()], dtype=object)
            if role.value in ("numeric", "response") and not np.isnan(col).any() else None
            for role, col in zip(table.roles, table.columns)]
    table = RawTable.build(table.names, table.roles, table.columns, text=text)
    with tempfile.TemporaryDirectory() as tmp:
        back = load_table(write_table(table, Path(tmp) / "t.csv"),
                          read_schema(write_schema(table, Path(tmp) / "t.schema")))
    assert [None if t is None else t.tolist() for t in back.text] == \
        [None if t is None else t.tolist() for t in text]
    return back


@PROPERTY_SETTINGS
@given(spelled_tables())
def test_handed_over_design_with_kept_text_equals_a_parse(table):
    """The handover check above, on tables whose numeric cells keep the text they were read from."""
    test_handed_over_design_equals_a_parse.hypothesis.inner_test(table)


@PROPERTY_SETTINGS
@given(checkpoint_tables() | spelled_tables())
@example(RawTable.build(["id", "a,b", 'say "q"', "y"], ["id", "factor", "exclude", "response"],
                        [[1, 2, 3, 4], ["a,b", '"q"', "a\nb", 'Ω,"ß"'],
                         ["x\ry", "", None, 'a, "b"'], [1.0, 2.0, 3.0, 4.0]]))
@example(RawTable.build(["f"], ["factor"], [["", "a", None, "a,b"]]))     # one column
@example(RawTable.build([""], ["exclude"], [["", "x"]]))                 # one column, empty name
@example(RawTable.build(["id", "x,1", "y"], ["id", "numeric", "response"], [[], [], []]))  # no rows
@example(RawTable.build([], [], []))
def test_write_table_quotes_as_the_csv_module(table):
    with tempfile.TemporaryDirectory() as tmp:
        assert write_table(table, Path(tmp) / "t.csv").read_bytes() == csv_module_bytes(table)


# A valid input of each reader, and the separator of its fields.
READER_INPUTS = {
    "data": ("id,x,g,y\n1,0.5,a,2\n2,1.5,b,3\n3,2.5,a,4\n", ","),
    "schema": ("id\tid\nx\tnumeric\tlenient\ng\tfactor\ny\tresponse\n", "\t"),
    "config": ("merged_table = d.csv\nmerged_schema = d.schema\nvstar = 5\nmodes = forward,both\n"
               "exclude_rows = 2\n", " = "),
}
DATA_SCHEMA = Schema({"id": ColumnRole.ID, "x": ColumnRole.NUMERIC, "g": ColumnRole.FACTOR,
                      "y": ColumnRole.RESPONSE})
TOKENS = (" 1.5 ", "nan", "1e999", "1_0", "\u0663", '""', "NA")
# bytes that are not UTF-8 (0xc3 starts a two-byte sequence), NUL and a quote
BYTES = (b"\xe9", b"\xff", b"\x80", b"\xc3", b"\x00", b'"')


@st.composite
def reader_inputs(draw):
    """A reader's kind and the bytes of a valid input of it after one to three
    cell mutations (a field set to one of TOKENS, a line's fields cut short or
    one added, a header's name repeated, a line repeated), the file cut to
    nothing or to its first line, CRLF line ends, up to two of BYTES inserted
    and a byte-order mark."""
    kind = draw(st.sampled_from(sorted(READER_INPUTS)))
    text, sep = READER_INPUTS[kind]
    lines = [line.split(sep) for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))      # a slice at len(lines[i]) appends
        op = draw(st.sampled_from(("token", "ragged", "repeat-name", "repeat-line")))
        if op == "token":
            lines[i][j:j + 1] = [draw(st.sampled_from(TOKENS))]
        elif op == "ragged":
            lines[i] = lines[i][:j] if draw(st.booleans()) else lines[i] + ["1"]
        elif op == "repeat-name":
            lines[0][j:j + 1] = lines[0][:1]
        else:
            lines.insert(i, list(lines[i]))
    if draw(st.sampled_from((False, False, False, True))):
        lines = lines[:draw(st.integers(0, 1))]
    data = "".join(sep.join(cells) + "\n" for cells in lines).encode()
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BYTES)) + data[at:]
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    return kind, data


@PROPERTY_SETTINGS
@given(reader_inputs())
@example(("data", b"id,x,g,y\n1," + b"9" * 131073 + b",a,2\n"))     # a field over the csv limit
@example(("schema", None))                                             # no file
def test_each_reader_loads_its_input_or_names_the_file(kind_and_data):
    """Each reader loads its input, or raises FileNotFoundError for a missing
    file, or a ValueError whose text starts with the file's path.  A config
    setting out of range is the one exception: it is checked when the
    RunConfig is built, from a file or in Python, so its error names the setting."""
    kind, data = kind_and_data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{kind}"
        if data is not None:
            path.write_bytes(data)
        try:
            if kind == "data":
                load_table(path, DATA_SCHEMA)
            else:
                (read_schema if kind == "schema" else read_config)(path)
        except FileNotFoundError as exc:
            assert data is None and str(exc) == f"{kind} file not found: {path}"
        except ValueError as exc:
            setting_check = kind == "config" and "_validate_config" in {
                frame.name for frame in traceback.extract_tb(exc.__traceback__)}
            assert str(exc).startswith(str(path)) or setting_check, repr(exc)


# The columns of a table the reference reader parses, with their roles; each
# example's schema leaves out a drawn subset of x, g and e, and draws a default role.
REFERENCE_ROLES = {"id": "id", "x": "numeric", "g": "factor", "e": "exclude", "y": "response"}
GRAMMAR_LABELS = ("a", "b", "2", "10", "1.0", "-1", "1_0", "\u0663", "Ω", "a,b")
# names the grammar rejects (a tab, a NUL, a leading '#', a '/' in a numeric or factor name), and a repeat
GRAMMAR_NAMES = ("a\tb", "a\x00b", "#c", "a/b", "x")


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def grammar_tables(draw):
    """The bytes of a small valid data file, and a schema as role strings
    (listed roles, a default, lenient columns), after one to four cell
    mutations: a cell set to one of TOKENS (a name to one of GRAMMAR_NAMES,
    which leaves the schema and takes the default role), padded with spaces
    or a tab, or quoted as the csv module quotes."""
    n = draw(st.integers(1, 4))
    ids = [str(draw(st.integers(-999, 999))) for _ in range(n)]
    ids[0] = str(draw(st.sampled_from((ids[0],) * 3 + (2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1))))
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    labels = st.sampled_from(GRAMMAR_LABELS).map(lambda c: _quote(c) if "," in c else c)
    lines = [list(REFERENCE_ROLES)] + [
        [i, draw(floats), draw(labels), draw(labels), draw(floats)] for i in ids]
    unlisted = draw(st.sets(st.sampled_from(("x", "g", "e"))))
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.integers(0, n)), draw(st.integers(0, 4))
        op = draw(st.sampled_from(("token", "pad", "quote")))
        if op == "token":
            lines[i][j] = draw(st.sampled_from(GRAMMAR_NAMES if i == 0 else TOKENS))
            if i == 0:
                unlisted.add(list(REFERENCE_ROLES)[j])
        elif op == "pad":
            lines[i][j] = draw(st.sampled_from((" ", "  ", "\t"))) + lines[i][j] + " "
        else:
            lines[i][j] = _quote(lines[i][j])
    roles = {name: role for name, role in REFERENCE_ROLES.items() if name not in unlisted}
    default = draw(st.sampled_from((None, "numeric", "factor", "exclude")))
    lenient = draw(st.sets(st.sampled_from(("x", "y", "*"))))
    data = "".join(",".join(cells) + "\n" for cells in lines).encode()
    return data, roles, default, frozenset(lenient)


def table_facts(table: RawTable) -> dict:
    """A loaded table in the shape :func:`oracles.reference_table` returns."""
    columns = [(c.dtype.name, c.view(np.int64).tolist() if c.dtype == np.float64 else c.tolist())
               for c in table.columns]
    return {"names": table.names, "roles": tuple(r.value for r in table.roles), "columns": columns,
            "levels": table.levels}


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(grammar_tables())
@example((b"id,x,g,e,y\n1,0.5,2,a,1\n2,1.5,1_0,b,2\n", dict(REFERENCE_ROLES), None, frozenset()))
@example((b"id,x,g,e,y\n1_0,0.5,10,a,1\n7,1.5,10,a,1\n", dict(REFERENCE_ROLES), None, frozenset()))
@example((b'id,x,"a\x00b",e,y\n1,0.5,a,a,1\n', {"id": "id", "y": "response"}, "exclude", frozenset()))
def test_load_table_agrees_with_the_reference_reader(case):
    """load_table and the reference reader give the same names, roles, float
    bits, id dtype and values, labels and level order, or both reject the
    file, load_table with a ValueError that starts with the path."""
    data, roles, default, lenient = case
    schema = Schema(roles={name: ColumnRole(role) for name, role in roles.items()}, lenient=lenient,
                    default=None if default is None else ColumnRole(default))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
        try:
            want = reference_table(path, roles, default, lenient)
        except ValueError:
            want = None
        try:
            got = table_facts(load_table(path, schema))
        except ValueError as exc:
            assert want is None, f"load_table rejects what the grammar accepts: {exc}"
            assert str(exc).startswith(str(path)), repr(exc)
            return
        assert got == want


@st.composite
def join_pairs(draw):
    """Two tables as load_table gives them, for merge_by_id: integer or text
    ids, mostly of one kind and one column name, drawn from a small pool so
    that some repeat and some are held by one table only; the id column at
    any position among numeric (some keeping text), factor and exclude
    columns, whose names may overlap, and maybe a response column."""
    text_ids = draw(st.booleans())
    tables = []
    for side, pool, response in ((0, ("x", "g", "w", "e"), "y"), (1, ("w", "z", "h", "f"), "outcome")):
        text_ids ^= draw(st.integers(0, 9)) == 7
        ids = draw(st.lists(st.integers(0, 11), min_size=1, max_size=8, unique=draw(st.integers(0, 3)) != 2))
        n = len(ids)
        names = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
        roles = [draw(st.sampled_from(("numeric", "factor", "exclude"))) for _ in names]
        if draw(st.integers(0, 2)) == 0:
            names.append(response)
            roles.append("response")
        columns, texts = [], []
        for role in roles:
            if role in ("numeric", "response"):
                values = draw(st.lists(NUMBERS, min_size=n, max_size=n))
                keep = draw(st.booleans()) and all(map(math.isfinite, values))
                columns.append(values)
                texts.append(np.array([repr(v) for v in values], dtype=object) if keep else None)
            else:
                columns.append(draw(st.lists(st.none() | st.sampled_from(GRAMMAR_LABELS), min_size=n, max_size=n)))
                texts.append(None)
        at = draw(st.integers(0, len(names)))
        names.insert(at, "key" if side and draw(st.integers(0, 9)) == 7 else "id")
        roles.insert(at, "id")
        columns.insert(at, np.array([str(i) for i in ids], dtype=object) if text_ids else ids)
        texts.insert(at, None)
        tables.append(RawTable.build(names, roles, columns, audit=(f"table {side}",), text=texts))
    return tuple(tables)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(join_pairs())
def test_merge_by_id_agrees_with_the_reference_join(pair):
    """merge_by_id gives the reference join's names, roles, column bits, text,
    factor levels and audit, or both reject the pair, merge_by_id with a
    ValueError."""
    try:
        want = reference_join(*pair)
    except ValueError:
        want = None
    try:
        got = merge_by_id(*pair)
    except ValueError as exc:
        assert want is None, f"merge_by_id rejects what the reference joins: {exc}"
        return
    assert want is not None, "merge_by_id joins what the reference rejects"
    text = [None if t is None else t.tolist() for t in got.text]
    assert {**table_facts(got), "text": text, "audit": got.audit} == want


@st.composite
def aliased_designs(draw):
    """An encoded design whose last numeric column copies another numeric
    column or a factor indicator, or is the sum of two numeric columns, so
    that exactly one column is aliased."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = draw(st.integers(1, 4))
    n_levels = draw(st.integers(0, 4))          # below 2: no factor
    n = draw(st.integers(max(12, 3 * n_levels), 40))
    kinds = ["copy"] + (["sum"] if p >= 2 else []) + (["dummy"] if n_levels >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(seed)

    names = ["id"] + [f"x{j + 1}" for j in range(p)] + ["dup", "y"]
    roles = ["id"] + ["numeric"] * (p + 1) + ["response"]
    X = rng.standard_normal((n, p))
    y = 1.0 + X @ rng.standard_normal(p) + rng.standard_normal(n)
    columns = [np.arange(1, n + 1)] + list(X.T)
    if n_levels >= 2:
        # every level on at least three rows, so no row has leverage one
        labels = np.array([f"L{i % n_levels}" for i in range(n)])[rng.permutation(n)]
        names.insert(-1, "f")
        roles.insert(-1, "factor")
        y = y + 0.5 * np.array([int(lab[1:]) for lab in labels])
    if kind == "copy":
        dup = X[:, draw(st.integers(0, p - 1))]
    elif kind == "sum":
        a, b = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
        dup = X[:, a] + X[:, b]
    else:
        dup = (labels == f"L{draw(st.integers(1, n_levels - 1))}").astype(float)
    columns += [dup]
    if n_levels >= 2:
        columns += [labels]
    columns += [y]
    return encode_design(RawTable.build(names, roles, columns))


@PROPERTY_SETTINGS
@given(aliased_designs())
def test_leverage_sums_to_rank(design):
    m = fit_ols(design)
    assert m.rank == np.linalg.matrix_rank(design.X) == design.n_cols - 1
    assert int(m.aliased.sum()) == 1
    assert abs(m.leverage.sum() - m.rank) < 1e-10 * m.rank


@PROPERTY_SETTINGS
@given(aliased_designs())
def test_press_equals_leave_one_out(design):
    m = fit_ols(design)
    assume(m.leverage.max() < 0.95)
    loo_err = design.y - loo_predictions(design)
    assert np.abs(press_residuals(m) - loo_err).max() < 1e-8


@PROPERTY_SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(10, 30), st.integers(1, 3), st.booleans())
def test_deletion_diagnostics_are_nan_exactly_where_a_row_is_fit_exactly(seed, n, p, single):
    # the last level of f holds one row when `single`; every deletion
    # diagnostic is NaN where 1 - h <= _LEVERAGE_EPS and the refit value elsewhere
    design = one_row_level_design(np.random.default_rng(seed), n, p, single)
    m = fit_ols(design)
    exact = 1.0 - m.leverage <= _LEVERAGE_EPS
    assert exact.sum() == single
    fit = ~exact
    assume(m.leverage[fit].max() < 0.95)
    got = {"press": press_residuals(m), "cooks": cooks_distance(m), "dffits": dffits(m),
           "internal": studentized(m, "internal"), "external": studentized(m, "external")}
    want = loo_diagnostics(design, fit)
    for name, values in got.items():
        assert np.array_equal(np.isnan(values), exact), name
        assert np.abs(values[fit] - want[name]).max() < 1e-8, name


@st.composite
def near_collinear_designs(draw, max_n=80, max_p=8):
    """Four to ``max_p`` numeric columns, one to three of which are rewritten
    as another column, or a combination of two, plus noise of scale 1e-9 to
    1e-2; every column is then rescaled and shifted.  30 to ``max_n`` rows."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = draw(st.integers(4, max_p))
    n = draw(st.integers(30, max_n))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    for _ in range(draw(st.integers(1, 3))):
        target, a, b = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3, unique=True))
        weight = draw(st.sampled_from([0.0, 0.5, -1.0]))
        noise = 10.0 ** draw(st.floats(-9.0, -2.0))
        X[:, target] = X[:, a] + weight * X[:, b] + noise * rng.standard_normal(n)
    X = X * rng.uniform(0.1, 10.0, p) + rng.normal(0.0, 5.0, p)
    return DesignMatrix.from_arrays(X, rng.standard_normal(n))


def assert_vifs_agree(got, want):
    """Both infinite, or within a relative 1e-13 x VIF: the rounding error of
    a VIF grows with the conditioning of its block, and a block whose VIFs
    are all finite has none above VIF_COLLINEAR."""
    assert math.isinf(got) == math.isinf(want)
    if math.isfinite(want):
        assert abs(got - want) <= 1e-13 * want * want


@PROPERTY_SETTINGS
@given(near_collinear_designs())
def test_vif_prune_matches_auxiliary_regression(design):
    _, report = vif_prune(design, vstar=10.0)
    trail, values = prune_by_auxiliary_regression(design, 10.0)
    assert [name for name, _ in report.trail] == [name for name, _ in trail]
    for (_, got), (_, want) in zip(report.trail, trail):
        assert_vifs_agree(got, want)
    assert report.values.keys() == values.keys()
    for name, want in values.items():
        assert_vifs_agree(report.values[name], want)


@st.composite
def mixed_tables(draw):
    """Zero to three numeric columns, each constant, random, or an earlier
    one plus noise of scale 1e-9 to 1e-1, and zero to two factors of one to
    four labels; 3 to 30 rows.  Some of these encode_design rejects."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(seed)
    names, roles, columns = ["y"], ["response"], [rng.standard_normal(n)]
    for j in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["constant", "random", "copy"][:3 if j else 2]))
        if kind == "constant":
            x = np.full(n, draw(st.floats(-1e3, 1e3)))
        elif kind == "random":
            x = rng.standard_normal(n)
        else:
            x = columns[draw(st.integers(1, j))] + 10.0 ** draw(st.floats(-9.0, -1.0)) * rng.standard_normal(n)
        names.append(f"x{j + 1}")
        roles.append("numeric")
        columns.append(x)
    for j in range(draw(st.integers(0, 2))):
        names.append(f"g{j + 1}")
        roles.append("factor")
        columns.append(rng.choice(["a", "b", "c", "d"][:draw(st.integers(1, 4))], size=n))
    return RawTable.build(names, roles, columns)


@PROPERTY_SETTINGS
@given(mixed_tables(), st.floats(1.01, 100.0))
def test_vif_prune_passes_every_design_encode_design_accepts(table, vstar):
    """No design that encoding accepts makes prune raise: every factor term
    is kept, every numeric term is either removed or kept at a VIF of at
    most vstar."""
    try:
        design = encode_design(table)
    except ValueError:
        return
    pruned, report = vif_prune(design, vstar=vstar)
    factors = [t.name for t in design.terms if t.kind == "factor"]
    numeric = [t.name for t in design.terms if t.kind == "numeric"]
    assert [t.name for t in pruned.terms if t.kind == "factor"] == factors
    assert [t.name for t in pruned.terms if t.kind == "numeric"] == list(report.values)
    assert sorted([name for name, _ in report.trail] + list(report.values)) == sorted(numeric)
    assert all(v <= vstar for v in report.values.values())


@PROPERTY_SETTINGS
@given(near_collinear_designs(max_n=40, max_p=6))
def test_search_aic_is_within_its_bound_of_the_extended_precision_reference(design):
    """fit_ols's AIC and the AIC of every model on each mode's trace, read
    from the updated factorization, lie within c·u·κ·n of an 80-digit
    reference.  A model fit_ols finds rank-deficient is fitted on fewer
    columns than the reference counts, so it is left out."""
    def check(terms, aic):
        model = fit_ols(design.subset_terms(terms))
        if model.rank == model.p:
            assert abs(aic - reference_aic(design, terms)) <= aic_error_bound(design, terms)

    check(design.term_names, fit_statistics(fit_ols(design)).aic_selection)
    for trace in step_select_modes(design).values():
        current = set(trace.start)
        check(current, trace.aic_start)
        for move in trace.moves:
            current = current - {move.term} if move.direction == "remove" else current | {move.term}
            check(current, move.aic_after)


@st.composite
def nested_cv_problems(draw, common=("a", "b")):
    """A table whose factor f has two ``common`` levels and one to three
    rare levels r0, r1, … of one or two rows, and candidates that are nested
    prefixes of a random term order.  Levels sort by label, so common levels
    that sort after the rare ones make the rare level r0 the reference."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = draw(st.integers(1, 4))
    n = draw(st.integers(30, 60))
    rare = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    n_common = n - sum(rare)
    labels = np.array([*common] * (n_common // 2) + [common[0]] * (n_common % 2)
                      + [f"r{k}" for k, rows in enumerate(rare) for _ in range(rows)])
    labels = labels[rng.permutation(n)]
    X = rng.standard_normal((n, p))
    y = 1.0 + X @ rng.standard_normal(p) + (labels != common[0]) + rng.standard_normal(n)
    names = ["id", *(f"x{j + 1}" for j in range(p)), "f", "y"]
    roles = ["id", *["numeric"] * p, "factor", "response"]
    table = RawTable.build(names, roles, [np.arange(n), *X.T, labels, y])
    order = draw(st.permutations(names[1:-1]))
    sizes = sorted(draw(st.sets(st.integers(1, len(order)), min_size=1)))
    models = {f"m{k}": tuple(order[:k]) for k in sizes}
    config = CVConfig.for_models(models, replications=30, seed=draw(st.integers(0, 1000)))
    return table, labels, config


def assert_rare_level_counts(res, labels, config):
    unseen = unseen_level_rows(labels, config)
    has_f = ["f" in terms for _, terms in config.models]
    assert res.exact_refits == (0,) * len(has_f)
    assert res.reduced_solves == tuple(int(np.count_nonzero(unseen)) * f for f in has_f)
    assert res.unseen_level_rows == tuple(int(unseen.sum()) * f for f in has_f)


@PROPERTY_SETTINGS
@given(nested_cv_problems())
def test_nested_cv_matches_refits_with_rare_levels(problem):
    table, labels, config = problem
    design = encode_design(table)
    res = mc_cross_validate(design, config)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(design, config), rtol=1e-10, atol=0)
    assert_rare_level_counts(res, labels, config)


@PROPERTY_SETTINGS
@given(nested_cv_problems(common=("s", "t")))
def test_nested_cv_matches_reencoded_refits_with_a_rare_reference_level(problem):
    table, labels, config = problem
    res = mc_cross_validate(encode_design(table), config)
    np.testing.assert_allclose(res.mspe, reencoded_cv_mspe(table, config), rtol=1e-10, atol=0)
    assert_rare_level_counts(res, labels, config)
