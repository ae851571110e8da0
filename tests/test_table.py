import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from regsel import (
    ColumnRole,
    DesignMatrix,
    RawTable,
    Schema,
    Term,
    coerce_to_factor,
    drop_incomplete_rows,
    drop_sparse_columns,
    encode_design,
    load_table,
    merge_by_id,
    model_formula,
    read_schema,
    write_schema,
    write_table,
)
from regsel.table import format_values, tsv_lines
from oracles import reference_table


def make_table(names, roles, columns):
    return RawTable.build(names, roles, columns)


def tables_equal(a: RawTable, b: RawTable) -> bool:
    if a.names != b.names or a.roles != b.roles:
        return False
    for ca, cb in zip(a.columns, b.columns):
        if ca.dtype.kind == "f":
            if not np.array_equal(ca, cb, equal_nan=True):
                return False
        elif not np.array_equal(ca, cb):
            return False
    return True


# ---------------------------------------------------------------------------
# load_table
# ---------------------------------------------------------------------------


def test_load_minimal(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("ID,x,y\n1,0.5,2\n2,1.5,3\n3,2.5,4\n")
    t = load_table(f, {"ID": "id", "x": "numeric", "y": "response"})
    assert t.n_rows == 3
    assert t.predictor_names == ("x",)
    assert t.id_name == "ID" and t.response_name == "y"
    np.testing.assert_allclose(t.column("x"), [0.5, 1.5, 2.5])


def test_load_factor_levels(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("ID,flag,y\n1,0,2\n2,1,3\n3,0,4\n")
    t = load_table(f, {"ID": "id", "flag": "factor", "y": "response"})
    assert t.levels["flag"] == ("0", "1")


@pytest.mark.parametrize("labels, levels", [
    (["10", "2", "-1", "2"], ("-1", "2", "10")),      # every label a number: by value
    (["a", "2", "10"], ("10", "2", "a")),             # one label is not: by label
    (["1.0", "1", "0.5"], ("0.5", "1", "1.0")),       # equal values go by label
    (["2", "nan", "10"], ("10", "2", "nan")),         # not finite: by label
    (["2", "1_0"], ("1_0", "2")),                     # "1_0" is not a number: by label
    (["10", "\u0663"], ("10", "\u0663")),              # nor is a non-ASCII digit
])
def test_factor_levels_follow_one_order_rule(labels, levels):
    t = make_table(["f", "y"], ["factor", "response"], [labels, np.ones(len(labels))])
    assert t.levels["f"] == levels


def test_load_strict_numeric_parse_error(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("ID,x,y\n1,0.5,2\n2,oops,3\n")
    with pytest.raises(ValueError, match=r"column 'x'.*row 2.*'oops'"):
        load_table(f, {"ID": "id", "x": "numeric", "y": "response"})


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999", "nan", "NaN"])
@pytest.mark.parametrize("column", ["x", "y"])
def test_load_rejects_non_finite_numbers(tmp_path, token, column):
    f = tmp_path / "d.csv"
    rows = {"x": ["0.5", "1.5", "2.5", "3.5", "4.5"], "y": ["2", "3", "4", "5", "6"]}
    rows[column][3] = token
    f.write_text("ID,x,y\n" + "".join(f"{i + 1},{x},{y}\n" for i, (x, y) in
                                      enumerate(zip(rows["x"], rows["y"]))))
    with pytest.raises(ValueError, match=rf"d\.csv: column '{column}', data row 4: non-finite"):
        load_table(f, {"ID": "id", "x": "numeric", "y": "response"})
    with pytest.raises(ValueError, match="non-finite"):
        load_table(f, Schema({"ID": ColumnRole.ID, "x": ColumnRole.NUMERIC,
                              "y": ColumnRole.RESPONSE}, lenient=frozenset({"x"})))


@pytest.mark.parametrize("lenient", [False, True])
def test_column_parse_matches_the_per_cell_parse(tmp_path, lenient):
    """Each column, whether one numpy call or the cell-by-cell parse reads it,
    gets the reference reader's bits, or the message of its one bad cell."""
    rng = np.random.default_rng(79)
    doubles = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
    tokens = [repr(float(v)) for v in doubles] + [
        repr(0.1), repr(1 / 3), "-0.0", "4.9e-324", "2.5e-320", "1e308", "1_0", " nan", "inf",
        "NA", "", "abc"]
    # what row 2 of a three-cell column is told when the reference rejects it
    reasons = {"1_0": "cannot parse '1_0' as numeric", "abc": "cannot parse 'abc' as numeric",
               " nan": "non-finite value 'nan'", "inf": "non-finite value 'inf'"}
    roles = {"ID": "id", "x": "numeric", "y": "response"}
    lenient_names = {"x"} if lenient else set()
    schema = Schema({name: ColumnRole(role) for name, role in roles.items()}, lenient=frozenset(lenient_names))
    f = tmp_path / "d.csv"
    for column in ([*tokens[:40]], *(["0.25", tok, "-3.5"] for tok in tokens)):
        f.write_text("ID,x,y\n" + "".join(f"{i},{c},{i}\n" for i, c in enumerate(column, start=1)))
        try:
            want = reference_table(f, roles, lenient=lenient_names)
        except ValueError:
            with pytest.raises(ValueError) as info:
                load_table(f, schema)
            assert str(info.value) == f"{f}: column 'x', data row 2: {reasons[column[1]]}"
            continue
        got = load_table(f, schema).column("x")
        assert got.view(np.int64).tolist() == want["columns"][1][1], column


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"])     # 1_0, Arabic-Indic 3, fullwidth 1
def test_numbers_with_an_underscore_or_non_ascii_character_do_not_parse(tmp_path, token):
    f = tmp_path / "d.csv"
    f.write_text(f"ID,x,y\n1,0.5,2\n2,{token},3\n3,1.5,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"d\.csv: column 'x', data row 2: cannot parse '{token}'"):
        load_table(f, {"ID": "id", "x": "numeric", "y": "response"})
    f.write_text(f"ID,x,y\n1,0.5,2\n2,1.5,{token}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"column 'y', data row 2: cannot parse '{token}'"):
        load_table(f, {"ID": "id", "x": "numeric", "y": "response"})
    f.write_text(f"ID,x,y\n1,0.5,2\n2,{token},3\n3,1.5,4\n", encoding="utf-8")
    lenient = load_table(f, Schema({"ID": ColumnRole.ID, "x": ColumnRole.NUMERIC,
                                    "y": ColumnRole.RESPONSE}, lenient=frozenset({"x"})))
    assert lenient.column("x")[0] == 0.5 and math.isnan(lenient.column("x")[1])
    f.write_text(f"ID,x,y\n1,0.5,2\n{token},1.5,3\n", encoding="utf-8")
    ids = load_table(f, {"ID": "id", "x": "numeric", "y": "response"}).column("ID")
    assert ids.dtype == object and ids.tolist() == ["1", token]


def test_design_matrix_rejects_non_finite_values():
    from regsel import DesignMatrix
    X = np.arange(12.0).reshape(6, 2)
    y = np.arange(6.0)
    for bad in (np.inf, -np.inf, np.nan):
        Xb = X.copy()
        Xb[4, 1] = bad
        with pytest.raises(ValueError, match="column 'x2', row 5: non-finite"):
            DesignMatrix.from_arrays(Xb, y)
        yb = y.copy()
        yb[2] = bad
        with pytest.raises(ValueError, match="column 'y', row 3: non-finite"):
            DesignMatrix.from_arrays(X, yb)


def test_load_lenient_numeric_becomes_missing(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("ID,x,y\n1,0.5,2\n2,oops,3\n")
    schema = Schema(roles={"ID": ColumnRole.ID, "x": ColumnRole.NUMERIC,
                           "y": ColumnRole.RESPONSE}, lenient=frozenset({"x"}))
    t = load_table(f, schema)
    assert math.isnan(t.column("x")[1])


def test_load_missing_markers(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("ID,x,f,y\n1,,a,2\n2,NA,NA,3\n3,1.5,b,4\n")
    t = load_table(f, {"ID": "id", "x": "numeric", "f": "factor", "y": "response"})
    assert t.missing_count("x") == 2
    assert t.missing_count("f") == 1
    assert t.levels["f"] == ("a", "b")


def test_load_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_table(tmp_path / "nope.csv", {"x": "numeric"})

    f = tmp_path / "dup.csv"
    f.write_text("x,x\n1,2\n")
    with pytest.raises(ValueError, match="duplicate column"):
        load_table(f, {"x": "numeric"})

    f = tmp_path / "empty.csv"
    f.write_text("ID,x\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_table(f, {"ID": "id", "x": "numeric"})

    f = tmp_path / "extra.csv"
    f.write_text("ID,x\n1,2\n")
    with pytest.raises(ValueError, match="no role"):
        load_table(f, {"ID": "id"})
    with pytest.raises(ValueError, match="not present in file"):
        load_table(f, {"ID": "id", "x": "numeric", "ghost": "numeric"})


@pytest.mark.parametrize("text, message", [
    ("ID,x\n1,2\nNA,3\n", "column 'ID', data row 2: id value is missing"),
    ("ID,x\n1,2\n2\n", "data row 2 has 1 fields, expected 2"),
    ("", "file is empty"),
])
def test_load_errors_name_the_file(tmp_path, text, message):
    f = tmp_path / "d.csv"
    f.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        load_table(f, {"ID": "id", "x": "numeric"})
    assert str(excinfo.value) == f"{f}: {message}"


# a numeric file of about 38 kB, so its rows span several of the decoder's read chunks
LONG = b"ID,x\n" + b"".join(b"%d,%d.25\n" % (i, i) for i in range(1, 3001))


@pytest.mark.parametrize("data, message", [
    (b"ID,x\n1,caf\xe9\n", "line 2: byte 0xe9 is not UTF-8"),
    (b"\xef\xbb\xbfID,x\n1,2\n2,\xc3", "line 3: byte 0xc3 is not UTF-8"),
    (LONG + b"3001,1\xff\n", "line 3002: byte 0xff is not UTF-8"),
    (b"ID,x\n1,2\n2," + b"9" * 131073 + b"\n", "line 3: field larger than field limit (131072)"),
], ids=["latin-1", "cut-short-after-a-bom", "bad-byte-past-the-first-chunk",
        "field-over-the-csv-limit"])
def test_undecodable_or_unreadable_data_names_the_file_and_line(tmp_path, data, message):
    f = tmp_path / "d.csv"
    f.write_bytes(data)
    with pytest.raises(ValueError) as excinfo:
        load_table(f, {"ID": "id", "x": "numeric"})
    assert str(excinfo.value) == f"{f}: {message}"


def test_a_schema_that_is_not_utf8_names_the_file_and_line(tmp_path):
    f = tmp_path / "s.schema"
    f.write_bytes(b"ID\tid\n# caf\xe9\nx\tnumeric\n")
    with pytest.raises(ValueError) as excinfo:
        read_schema(f)
    assert str(excinfo.value) == f"{f}: line 2: byte 0xe9 is not UTF-8"
    with pytest.raises(FileNotFoundError, match="schema file not found: "):
        read_schema(tmp_path / "none.schema")


def test_a_header_without_a_role_names_the_file(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("id,x,w,y\n1,2,3,4\n")
    with pytest.raises(ValueError) as excinfo:
        load_table(f, {"id": "id", "x": "numeric", "y": "response"})
    assert str(excinfo.value) == f"{f}: column 'w' has no role in the schema and no default role is declared"


def test_load_default_role_and_tab_delimiter(tmp_path):
    f = tmp_path / "d.tsv"
    f.write_text("ID\tx1\tx2\ty\n1\t0.1\t0.2\t5\n2\t0.3\t0.4\t6\n")
    schema = Schema(roles={"ID": ColumnRole.ID, "y": ColumnRole.RESPONSE},
                    default=ColumnRole.NUMERIC)
    t = load_table(f, schema, delimiter="\t")
    assert t.predictor_names == ("x1", "x2")
    # a mapping schema declares the default role under "*"
    t = load_table(f, {"ID": "id", "y": "response", "*": "numeric"}, delimiter="\t")
    assert t.predictor_names == ("x1", "x2")


def test_schema_file_round_trip(tmp_path):
    f = tmp_path / "s.schema"
    f.write_text("# comment\nID\tid\nx\tnumeric\tlenient\nf\tfactor\n*\texclude\n")
    s = read_schema(f)
    assert s.roles["x"] is ColumnRole.NUMERIC
    assert s.is_lenient("x") and not s.is_lenient("f")
    assert s.role_of("anything_else") is ColumnRole.EXCLUDE

    f.write_text("x\tnot_a_role\n")
    with pytest.raises(ValueError, match="unknown role"):
        read_schema(f)
    f.write_text("x\tnumeric\tstrict\n")
    with pytest.raises(ValueError, match="unknown flag"):
        read_schema(f)


def test_lenient_default_role_applies_to_unlisted_columns(tmp_path):
    (tmp_path / "s.schema").write_text("ID\tid\ny\tresponse\n*\tnumeric\tlenient\n")
    (tmp_path / "d.csv").write_text("ID,x,y\n1,0.5,2\n2,abc,3\n")
    schema = read_schema(tmp_path / "s.schema")
    assert schema.is_lenient("x") and not schema.is_lenient("y")
    x = load_table(tmp_path / "d.csv", schema).column("x")
    assert x[0] == 0.5 and math.isnan(x[1])
    (tmp_path / "d.csv").write_text("ID,x,y\n1,0.5,2\n2,1.5,abc\n")
    with pytest.raises(ValueError, match="column 'y', data row 2: cannot parse 'abc'"):
        load_table(tmp_path / "d.csv", schema)


@pytest.mark.parametrize("header, name", [
    ('ID,"a\tb",y', "'a\\tb'"),
    ('ID,"a\nb",y', "'a\\nb'"),
    ("ID,,y", "''"),
    ("ID,#a,y", "'#a'"),
    ("ID,a/b,y", "'a/b'"),
    ('ID,"a\0b",y', "'a\\x00b'"),
], ids=["tab", "line-break", "empty", "hash", "slash", "nul"])
def test_names_regsel_cannot_write_back_are_rejected(tmp_path, header, name):
    f = tmp_path / "d.csv"
    f.write_text(f"{header}\n1,0.5,2\n2,1.5,3\n")
    slash = "/" in header       # only a numeric or factor name gives a file its name
    for role in (ColumnRole.NUMERIC, ColumnRole.FACTOR) + (() if slash else (ColumnRole.EXCLUDE,)):
        schema = Schema(roles={"ID": ColumnRole.ID, "y": ColumnRole.RESPONSE}, default=role)
        with pytest.raises(ValueError) as excinfo:
            load_table(f, schema)
        if "\0" in header and sys.version_info < (3, 11):     # the csv module of 3.10 refuses NUL itself
            assert str(excinfo.value) == f"{f}: line 1: line contains NUL"
            continue
        assert str(excinfo.value).startswith(f"{f}: column {name} cannot be written back")


def test_slash_in_id_response_or_exclude_names_loads(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("the/id,x,skip/me,the/y\n1,0.5,a,2\n2,1.5,b,3\n")
    t = load_table(f, {"the/id": "id", "x": "numeric", "skip/me": "exclude", "the/y": "response"})
    assert t.names == ("the/id", "x", "skip/me", "the/y")


def test_id_beyond_int64_is_read_as_text(tmp_path):
    (tmp_path / "big.csv").write_text("id,x\n1,0.5\n99999999999999999999,1.5\n3,2.5\n")
    (tmp_path / "ints.csv").write_text("id,z\n1,1\n3,2\n")
    big = load_table(tmp_path / "big.csv", {"id": "id", "x": "numeric"})
    assert big.column("id").tolist() == ["1", "99999999999999999999", "3"]
    ints = load_table(tmp_path / "ints.csv", {"id": "id", "z": "numeric"})
    with pytest.raises(ValueError, match="id column 'id' holds text in the left table"):
        merge_by_id(big, ints)


def test_byte_order_mark_is_not_read_into_the_first_name(tmp_path):
    (tmp_path / "t.csv").write_text("id,x,y\n1,0.5,2\n2,1.5,3\n")
    (tmp_path / "t.schema").write_text("id\tid\nx\tnumeric\ny\tresponse\n")
    for name in ("t.csv", "t.schema"):
        (tmp_path / f"bom_{name}").write_text("\ufeff" + (tmp_path / name).read_text())
    schema = read_schema(tmp_path / "t.schema")
    assert read_schema(tmp_path / "bom_t.schema") == schema
    assert tables_equal(load_table(tmp_path / "bom_t.csv", schema), load_table(tmp_path / "t.csv", schema))


def test_write_table_round_trip(tmp_path):
    t = make_table(
        ["id", "x", "f", "y"],
        ["id", "numeric", "factor", "response"],
        [[1, 2, 3], [0.25, math.nan, 2.5], ["a", None, "b"], [1.5, 2.5, 3.5]],
    )
    path = write_table(t, tmp_path / "t.csv")
    schema = read_schema(write_schema(t, tmp_path / "t.schema"))
    back = load_table(path, schema)
    assert tables_equal(t, back)


def test_write_table_cells(tmp_path):
    t = make_table(
        ["id", "x", "f", "y"],
        ["id", "numeric", "factor", "response"],
        [[7, 8, 9], [0.1 + 0.2, math.nan, -2.0], ["a", None, "b c"], [1e-300, 2.5, math.nan]],
    )
    path = write_table(t, tmp_path / "t.csv")
    assert path.read_bytes() == (b"id,x,f,y\r\n7,0.30000000000000004,a,1e-300\r\n"
                                 b"8,NA,NA,2.5\r\n9,-2.0,b c,NA\r\n")


def test_format_values_and_tsv_lines():
    assert format_values([np.float64(1.5), 0.1 + 0.2, math.nan, -math.inf, None]) == [
        "1.5", "0.30000000000000004", "NA", "-inf", "NA"]
    assert format_values(np.array(["a", None, "b c"], dtype=object)) == ["a", "NA", "b c"]
    assert tsv_lines(("i", "v"), range(1, 3), np.array([2.5, np.nan]), preamble=("# k\t1",)) == [
        "# k\t1", "i\tv", "1\t2.5", "2\tNA"]
    assert tsv_lines(("i", "v")) == ["i\tv"]
    with pytest.raises(ValueError):
        tsv_lines(("i", "v"), range(3), [1.0, 2.0])


# ---------------------------------------------------------------------------
# Kept text: numeric cells written back as they were read
# ---------------------------------------------------------------------------


def text_of(table: RawTable, name: str):
    text = table.text[table.names.index(name)]
    return None if text is None else text.tolist()


def test_numeric_cells_are_written_back_as_their_stripped_text(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("id,x,y\n1,1.50,+2\n2,1E3,-0\n3,1e-400, 7 \n")
    schema = {"id": "id", "x": "numeric", "y": "response"}
    t = load_table(f, schema)
    assert text_of(t, "x") == ["1.50", "1E3", "1e-400"] and text_of(t, "y") == ["+2", "-0", "7"]
    assert text_of(t, "id") is None
    path = write_table(t, tmp_path / "prep.csv")
    assert path.read_bytes() == b"id,x,y\r\n1,1.50,+2\r\n2,1E3,-0\r\n3,1e-400,7\r\n"
    back = load_table(path, schema)
    for name, want in (("x", [1.5, 1000.0, 0.0]), ("y", [2.0, -0.0, 7.0])):
        assert back.column(name).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
        assert back.column(name).view(np.int64).tolist() == t.column(name).view(np.int64).tolist()


def test_merge_by_id_reorders_the_text_with_the_ids(tmp_path):
    (tmp_path / "a.csv").write_text("id,x\n3,3.0\n1,1.00\n2,2.50\n")
    (tmp_path / "b.csv").write_text("id,y\n2,20.0\n4,4E1\n3,30.0\n1,1E1\n")
    a = load_table(tmp_path / "a.csv", {"id": "id", "x": "numeric"})
    b = load_table(tmp_path / "b.csv", {"id": "id", "y": "response"})
    merged = merge_by_id(a, b)
    assert merged.column("id").tolist() == [1, 2, 3]
    assert text_of(merged, "x") == ["1.00", "2.50", "3.0"] and text_of(merged, "y") == ["1E1", "20.0", "30.0"]
    assert write_table(merged, tmp_path / "ab.csv").read_bytes() == (
        b"id,x,y\r\n1,1.00,1E1\r\n2,2.50,20.0\r\n3,3.0,30.0\r\n")
    assert write_table(merge_by_id(b, a), tmp_path / "ba.csv").read_bytes() == (
        b"id,y,x\r\n1,1E1,1.00\r\n2,20.0,2.50\r\n3,30.0,3.0\r\n")


def test_dropped_rows_and_columns_take_their_text_along(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("id,x,z,w,y\n1,1.0,5,NA,0.10\n2,2.0,NA,NA,0.20\n3,3.0,7,NA,0.30\n4,4.0,8,1,0.40\n")
    t = load_table(f, {"id": "id", "x": "numeric", "z": "numeric", "w": "numeric", "y": "response"})
    assert len(t.text) == 5 and text_of(t, "w") is None
    t = drop_incomplete_rows(drop_sparse_columns(t, 0.5))
    assert t.names == ("id", "x", "z", "y") and len(t.text) == 4
    assert text_of(t, "x") == ["1.0", "3.0", "4.0"] and text_of(t, "y") == ["0.10", "0.30", "0.40"]
    assert text_of(t, "z") is None      # it had a missing cell, so it is written through format_values
    assert write_table(t, tmp_path / "p.csv").read_bytes() == (
        b"id,x,z,y\r\n1,1.0,5.0,0.10\r\n3,3.0,7.0,0.30\r\n4,4.0,8.0,0.40\r\n")


def test_coerced_and_lenient_columns_are_written_through_format_values(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("id,g,u,y\n1,1.0,0.50,1\n2,0.0,x,2\n3,1.0,1.50,3\n")
    schema = Schema(roles={"id": ColumnRole.ID, "g": ColumnRole.NUMERIC, "u": ColumnRole.NUMERIC,
                           "y": ColumnRole.RESPONSE}, lenient=frozenset({"u"}))
    t = load_table(f, schema)
    assert text_of(t, "g") == ["1.0", "0.0", "1.0"] and text_of(t, "u") is None
    t = coerce_to_factor(t, ["g"])
    assert text_of(t, "g") is None and text_of(t, "y") == ["1", "2", "3"]
    assert write_table(t, tmp_path / "p.csv").read_bytes() == (
        b"id,g,u,y\r\n1,1,0.5,1\r\n2,0,NA,2\r\n3,1,1.5,3\r\n")


def test_text_is_kept_only_where_it_is_given_for_a_numeric_column():
    t = make_table(["id", "x", "f"], ["id", "numeric", "factor"], [[1], [0.5], ["a"]])
    assert t.text == (None, None, None)
    t = RawTable.build(["x", "f"], ["numeric", "factor"], [[0.5], ["a"]],
                       text=[np.array(["5e-1"], dtype=object), np.array(["a"], dtype=object)])
    assert t.text[0].tolist() == ["5e-1"] and t.text[1] is None


# ---------------------------------------------------------------------------
# drop_sparse_columns
# ---------------------------------------------------------------------------


def _sparse_fixture(missing_in_a=1, n=100):
    a = np.arange(n, dtype=float)
    a[:missing_in_a] = np.nan
    b = np.arange(n, dtype=float)
    return make_table(["id", "a", "b", "y"],
                      ["id", "numeric", "numeric", "response"],
                      [np.arange(n), a, b, np.ones(n)])


def test_drop_sparse_at_threshold_uses_greater_equal():
    # 1 missing of 100 at ratio 0.01: 1 >= 100 * 0.01, so the column goes
    t = drop_sparse_columns(_sparse_fixture(missing_in_a=1), 0.01)
    assert "a" not in t.names and "b" in t.names
    assert any("dropped 'a'" in line and "1/100" in line for line in t.audit)


def test_drop_sparse_keeps_complete_column():
    t = drop_sparse_columns(_sparse_fixture(missing_in_a=0), 0.01)
    assert "a" in t.names and "b" in t.names


def test_drop_sparse_ratio_zero_removes_everything():
    with pytest.raises(ValueError, match="no predictors remain"):
        drop_sparse_columns(_sparse_fixture(), 0.0)


def test_drop_sparse_ratio_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        drop_sparse_columns(_sparse_fixture(), 1.5)


def test_drop_sparse_idempotent():
    rng = np.random.default_rng(7)
    cols = []
    for j in range(6):
        c = rng.standard_normal(50)
        c[rng.choice(50, size=j, replace=False)] = np.nan
        cols.append(c)
    t = make_table(["id", *[f"x{j}" for j in range(6)], "y"],
                   ["id", *["numeric"] * 6, "response"],
                   [np.arange(50), *cols, np.ones(50)])
    once = drop_sparse_columns(t, 0.05)
    twice = drop_sparse_columns(once, 0.05)
    assert tables_equal(once, twice)


# ---------------------------------------------------------------------------
# merge_by_id
# ---------------------------------------------------------------------------


def test_merge_inner_join_semantics():
    a = make_table(["id", "x"], ["id", "numeric"], [[1, 2, 3], [1.0, 2.0, 3.0]])
    b = make_table(["id", "z"], ["id", "numeric"], [[4, 2, 3], [4.0, 2.0, 3.0]])
    m = merge_by_id(a, b)
    assert m.column("id").tolist() == [2, 3]          # sorted ascending
    np.testing.assert_allclose(m.column("x"), [2.0, 3.0])
    np.testing.assert_allclose(m.column("z"), [2.0, 3.0])
    assert m.n_rows <= min(a.n_rows, b.n_rows)
    assert any("1 left-only and 1 right-only" in line for line in m.audit)


def test_merge_identity_join():
    a = make_table(["id", "x"], ["id", "numeric"], [[3, 1, 2], [3.0, 1.0, 2.0]])
    b = make_table(["id", "z"], ["id", "numeric"], [[1, 2, 3], [1.0, 2.0, 3.0]])
    m = merge_by_id(a, b)
    assert m.n_rows == 3
    assert set(m.names) == {"id", "x", "z"}
    assert m.column("id").tolist() == [1, 2, 3]


def test_merge_duplicate_id_error():
    a = make_table(["id", "x"], ["id", "numeric"], [[7, 7, 2], [1.0, 2.0, 3.0]])
    b = make_table(["id", "z"], ["id", "numeric"], [[1, 2, 3], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="duplicate id 7"):
        merge_by_id(a, b)


def test_merge_column_collision_error():
    a = make_table(["id", "x"], ["id", "numeric"], [[1, 2], [1.0, 2.0]])
    b = make_table(["id", "x"], ["id", "numeric"], [[1, 2], [1.0, 2.0]])
    with pytest.raises(ValueError, match="both tables"):
        merge_by_id(a, b)


@pytest.mark.parametrize("left, right, message", [
    ((["x"], ["numeric"], [[1.0, 2.0]]), (["id", "z"], ["id", "numeric"], [[1, 2], [1.0, 2.0]]),
     "both tables must have an id column to merge"),
    ((["id", "x"], ["id", "numeric"], [[1, 2], [1.0, 2.0]]),
     (["key", "z"], ["id", "numeric"], [[1, 2], [1.0, 2.0]]), "id columns differ: 'id' vs 'key'"),
    ((["id", "x"], ["id", "numeric"], [[1, 2], [1.0, 2.0]]),
     (["id", "z"], ["id", "numeric"], [[3, 4], [1.0, 2.0]]), "no common ids between the tables"),
], ids=["no-id", "id-names-differ", "no-common-ids"])
def test_merge_by_id_errors(left, right, message):
    with pytest.raises(ValueError) as excinfo:
        merge_by_id(make_table(*left), make_table(*right))
    assert str(excinfo.value) == message


def test_text_ids_built_from_strings_never_match_integer_ids():
    text = make_table(["id", "x"], ["id", "numeric"], [["1", "2", "3"], [1.0, 2.0, 3.0]])
    ints = make_table(["id", "z"], ["id", "numeric"], [np.arange(1, 4), [1.0, 2.0, 3.0]])
    assert text.column("id").dtype == object
    with pytest.raises(ValueError, match="id column 'id' holds text in the left table"):
        merge_by_id(text, ints)


@pytest.mark.parametrize("text_side", ["left", "right"])
def test_merge_rejects_text_ids_against_integer_ids(tmp_path, text_side):
    (tmp_path / "ints.csv").write_text("id,x\n1,0.5\n2,1.5\n3,2.5\n")
    (tmp_path / "text.csv").write_text("id,z\n1,1\nb2,2\n3,3\n4,4\n")
    ints = load_table(tmp_path / "ints.csv", {"id": "id", "x": "numeric"})
    text = load_table(tmp_path / "text.csv", {"id": "id", "z": "numeric"})
    assert ints.column("id").dtype == np.int64 and text.column("id").dtype == object
    int_side = "right" if text_side == "left" else "left"
    with pytest.raises(ValueError) as excinfo:
        merge_by_id(*((text, ints) if text_side == "left" else (ints, text)))
    assert str(excinfo.value) == (f"id column 'id' holds text in the {text_side} table and "
                                  f"integers in the {int_side} table, so no id can match")


# ---------------------------------------------------------------------------
# drop_incomplete_rows
# ---------------------------------------------------------------------------


def test_drop_incomplete_rows():
    x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
    t = make_table(["id", "x", "y"], ["id", "numeric", "response"],
                   [np.arange(5), x, np.ones(5)])
    out = drop_incomplete_rows(t)
    assert out.n_rows == 4
    assert any("removed 1 of 5" in line for line in out.audit)

    unchanged = drop_incomplete_rows(out)
    assert unchanged.n_rows == 4


def test_drop_incomplete_rows_all_missing_errors():
    t = make_table(["id", "x", "y"], ["id", "numeric", "response"],
                   [np.arange(3), [np.nan] * 3, np.ones(3)])
    with pytest.raises(ValueError, match="empty dataset after NA omission"):
        drop_incomplete_rows(t)


def test_drop_incomplete_rows_ignores_exclude_columns():
    t = make_table(["id", "x", "junk", "y"], ["id", "numeric", "exclude", "response"],
                   [np.arange(3), [1.0, 2.0, 3.0], ["a", None, "c"], np.ones(3)])
    assert drop_incomplete_rows(t).n_rows == 3


def test_drop_incomplete_rows_shrinks_factor_levels():
    t = make_table(["id", "x", "f", "y"], ["id", "numeric", "factor", "response"],
                   [np.arange(4), [1.0, np.nan, 3.0, 4.0], ["a", "b", "a", "c"], np.ones(4)])
    out = drop_incomplete_rows(t)
    assert out.levels["f"] == ("a", "c")


# ---------------------------------------------------------------------------
# coerce_to_factor
# ---------------------------------------------------------------------------


def test_coerce_binary_column():
    t = make_table(["id", "flag", "y"], ["id", "numeric", "response"],
                   [np.arange(4), [0.0, 1.0, 0.0, 1.0], np.ones(4)])
    out = coerce_to_factor(t, ["flag"])
    assert out.role_of("flag") is ColumnRole.FACTOR
    assert out.levels["flag"] == ("0", "1")


def test_coerce_auto_skips_non_binary():
    t = make_table(["id", "a", "b", "y"], ["id", "numeric", "numeric", "response"],
                   [np.arange(3), [0.0, 1.0, 2.0], [0.0, 1.0, 1.0], np.ones(3)])
    out = coerce_to_factor(t, auto=True)
    assert out.role_of("a") is ColumnRole.NUMERIC
    assert out.role_of("b") is ColumnRole.FACTOR


def test_coerce_max_levels_guard():
    t = make_table(["id", "v", "y"], ["id", "numeric", "response"],
                   [np.arange(20), np.arange(20, dtype=float), np.ones(20)])
    with pytest.raises(ValueError, match="20 distinct"):
        coerce_to_factor(t, ["v"], max_levels=12)


def test_coerce_numeric_level_order():
    t = make_table(["id", "v", "y"], ["id", "numeric", "response"],
                   [np.arange(4), [10.0, 2.0, 10.0, 1.0], np.ones(4)])
    out = coerce_to_factor(t, ["v"])
    assert out.levels["v"] == ("1", "2", "10")     # numeric sort, then labels


def test_coerce_errors():
    t = make_table(["id", "f", "y"], ["id", "factor", "response"],
                   [np.arange(2), ["a", "b"], np.ones(2)])
    with pytest.raises(KeyError):
        coerce_to_factor(t, ["nope"])
    with pytest.raises(ValueError, match="not numeric"):
        coerce_to_factor(t, ["f"])


# ---------------------------------------------------------------------------
# encode_design
# ---------------------------------------------------------------------------


def test_encode_six_level_factor_names_by_level():
    labels = [str(i) for i in (1, 2, 3, 4, 5, 6)] * 2
    t = make_table(["id", "cohort", "y"], ["id", "factor", "response"],
                   [np.arange(12), labels, np.ones(12)])
    d = encode_design(t)
    assert d.column_names == ("(Intercept)", "cohort2", "cohort3", "cohort4",
                              "cohort5", "cohort6")
    term = d.term("cohort")
    assert term.kind == "factor" and len(term.columns) == 5
    assert term.levels == ("1", "2", "3", "4", "5", "6")


def test_encode_single_numeric():
    t = make_table(["id", "x", "y"], ["id", "numeric", "response"],
                   [np.arange(3), [0.0, 1.0, 2.0], [5.0, 6.0, 7.0]])
    d = encode_design(t)
    assert d.X.shape == (3, 2)
    np.testing.assert_array_equal(d.X[:, 0], 1.0)
    np.testing.assert_array_equal(d.X[:, 1], [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(d.y, [5.0, 6.0, 7.0])


def test_encode_binary_factor_indicator():
    t = make_table(["id", "f", "y"], ["id", "factor", "response"],
                   [np.arange(3), ["0", "1", "0"], np.ones(3)])
    d = encode_design(t)
    assert d.column_names == ("(Intercept)", "f1")
    np.testing.assert_array_equal(d.X[:, 1], [0.0, 1.0, 0.0])


def test_encode_errors():
    t = make_table(["id", "f", "y"], ["id", "factor", "response"],
                   [np.arange(3), ["a", "a", "a"], np.ones(3)])
    with pytest.raises(ValueError, match="fewer than two"):
        encode_design(t)

    t = make_table(["id", "y"], ["id", "response"], [np.arange(3), np.ones(3)])
    with pytest.raises(ValueError, match="no predictor columns"):
        encode_design(t)

    t = make_table(["id", "x"], ["id", "numeric"], [np.arange(3), np.ones(3)])
    with pytest.raises(ValueError, match="no response column"):
        encode_design(t)

    t = make_table(["id", "x", "y"], ["id", "numeric", "response"],
                   [np.arange(3), [1.0, np.nan, 3.0], np.ones(3)])
    with pytest.raises(ValueError, match="missing cells"):
        encode_design(t)


def test_encode_column_count_invariant():
    rng = np.random.default_rng(11)
    n = 30
    f1 = rng.choice(["a", "b", "c"], size=n)
    f2 = rng.choice(["u", "v", "w", "x"], size=n)
    t = make_table(
        ["id", "x1", "f1", "x2", "f2", "y"],
        ["id", "numeric", "factor", "numeric", "factor", "response"],
        [np.arange(n), rng.standard_normal(n), f1, rng.standard_normal(n), f2,
         rng.standard_normal(n)],
    )
    d = encode_design(t)
    expected = 1 + 2 + (3 - 1) + (4 - 1)
    assert d.n_cols == expected
    # every non-intercept column belongs to exactly one term
    claimed = sorted(c for term in d.terms for c in term.columns)
    assert claimed == list(range(1, expected))


def test_encode_decode_round_trip():
    rng = np.random.default_rng(3)
    labels = rng.choice(["lo", "mid", "hi"], size=40)
    t = make_table(["id", "f", "x", "y"], ["id", "factor", "numeric", "response"],
                   [np.arange(40), labels, rng.standard_normal(40), np.ones(40)])
    d = encode_design(t)
    np.testing.assert_array_equal(d.decode_factor("f"), labels.astype(object))
    np.testing.assert_array_equal(d.level_codes("f"), [("hi", "lo", "mid").index(v) for v in labels])


@pytest.mark.parametrize("bad_row", [[1.0, 1.0], [0.5, 0.0], [0.0, -1.0]])
def test_level_codes_rejects_an_invalid_dummy_row(bad_row):
    t = make_table(["f", "y"], ["factor", "response"], [["a", "b", "c", "a"], np.ones(4)])
    d = encode_design(t)
    X = d.X.copy()
    X[2, 1:] = bad_row
    d = DesignMatrix(X=X, y=d.y, column_names=d.column_names, terms=d.terms, row_ids=d.row_ids)
    for read in (d.level_codes, d.decode_factor):
        with pytest.raises(ValueError, match="row 3: dummy block of 'f' is not a valid encoding"):
            read("f")


def _schema_file(tmp_path, text):
    path = tmp_path / "s.schema"
    path.write_text(text)
    return path


def _csv_file(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return path


def _labelled(label):
    """A table whose factor g has the levels "a" and ``label``."""
    return make_table(["id", "g", "y"], ["id", "factor", "response"],
                      [np.arange(4), ["a", label, "a", label], [1.0, 2.0, 0.0, 3.0]])


# a level label becomes part of the dummy name <factor><level> in the tab-separated reports
LABEL_ERROR = "a label holding a tab or line break cannot name a column of regsel's reports"


_X3 = np.column_stack([np.ones(3), [1.0, 2.0, 4.0]])
_X3_TERMS = (Term("x", "numeric", (1,)),)
_X4 = np.column_stack([_X3, [0.0, 1.0, 0.0]])
_X4_TERMS = (Term("x", "numeric", (1,)), Term("z", "numeric", (2,)))
# a numeric column g1 beside a factor g whose level 1 gives the dummy g1
_G1 = make_table(["id", "g1", "g", "y"], ["id", "numeric", "factor", "response"],
                 [np.arange(6), np.arange(6.0), ["0", "1", "2"] * 2, [1.0, 0.0, 2.0, 3.0, 1.0, 5.0]])


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: read_schema(_schema_file(tmp, "x\n")), ValueError,
     "s.schema:1: expected 'name<TAB>role[<TAB>lenient]', got 'x'"),
    (lambda tmp: read_schema(_schema_file(tmp, "x\tnumeric\nx\tfactor\n")), ValueError,
     "s.schema:2: duplicate schema entry for column 'x'"),
    (lambda tmp: read_schema(_schema_file(tmp, "id\tid\n*\tnumeric\n*\texclude\n")), ValueError,
     "s.schema:3: duplicate schema entry for column '*'"),
    (lambda tmp: make_table(["a", "b"], ["numeric"], [[1.0]]), ValueError,
     "names, roles and columns must have equal length"),
    (lambda tmp: make_table(["a", "a"], ["numeric"] * 2, [[1.0], [2.0]]), ValueError,
     "duplicate column names: a"),
    (lambda tmp: make_table(["a", "b"], ["numeric"] * 2, [[1.0], [1.0, 2.0]]), ValueError,
     "all columns must have equal length"),
    (lambda tmp: make_table(["y", "z"], ["response"] * 2, [[1.0], [2.0]]), ValueError,
     "table declares 2 response columns; at most one is allowed"),
    (lambda tmp: load_table(_csv_file(tmp, "a,b,x\n1,2,0.5\n"),
                            {"a": "id", "b": "id", "x": "numeric"}),
     ValueError, "t.csv: table declares 2 id columns; at most one is allowed"),
    (lambda tmp: load_table(_csv_file(tmp, "a,b,x\n1,2,0.5\n"),
                            {"a": "response", "b": "response", "x": "numeric"}),
     ValueError, "t.csv: table declares 2 response columns; at most one is allowed"),
    (lambda tmp: coerce_to_factor(make_table(["b"], ["numeric"], [[0.0, 1.0]]), ["b", "b"]),
     ValueError, "column 'b' is listed twice"),
    (lambda tmp: encode_design(_labelled("a\tb")), ValueError,
     f"factor 'g' has the level 'a\\tb': {LABEL_ERROR}"),
    (lambda tmp: encode_design(_labelled("c\nd")), ValueError,
     f"factor 'g' has the level 'c\\nd': {LABEL_ERROR}"),
    (lambda tmp: encode_design(_labelled("e\rf")), ValueError,
     f"factor 'g' has the level 'e\\rf': {LABEL_ERROR}"),
    (lambda tmp: make_table(["a"], ["numeric"], [[1.0]]).role_of("b"), KeyError,
     "no column named 'b'"),
    (lambda tmp: make_table(["a"], ["numeric"], [[1.0]]).column("b"), KeyError,
     "no column named 'b'"),
    (lambda tmp: drop_sparse_columns(make_table(["a"], ["numeric"], [[]]), 0.5), ValueError,
     "table has no rows"),
    (lambda tmp: DesignMatrix(np.ones((0, 1)), np.ones(0), ("(Intercept)",), (), np.arange(0)),
     ValueError, "X must be a nonempty 2-d matrix"),
    (lambda tmp: DesignMatrix(_X3, np.ones(2), ("(Intercept)", "x"), _X3_TERMS, np.arange(3)),
     ValueError, "y length must match the number of rows of X"),
    (lambda tmp: DesignMatrix(_X3, np.ones(3), ("(Intercept)",), _X3_TERMS, np.arange(3)),
     ValueError, "column_names length must match the number of columns of X"),
    (lambda tmp: DesignMatrix(_X3[:, ::-1], np.ones(3), ("x", "(Intercept)"), _X3_TERMS, np.arange(3)),
     ValueError, "first design column must be the all-ones intercept"),
    (lambda tmp: DesignMatrix(_X3, np.ones(3), ("(Intercept)", "x"), (), np.arange(3)),
     ValueError, "every non-intercept column must belong to exactly one term group"),
    (lambda tmp: DesignMatrix(_X4, np.ones(3), ("(Intercept)", "x", "x"), _X4_TERMS, np.arange(3)),
     ValueError, "two design columns are named 'x'"),
    (lambda tmp: DesignMatrix(_X4, np.ones(3), ("(Intercept)", "x", "z"),
                              (_X4_TERMS[0], replace(_X4_TERMS[1], name="x")), np.arange(3)),
     ValueError, "two terms are named 'x'"),
    (lambda tmp: encode_design(_G1), ValueError, "two design columns are named 'g1'"),
    (lambda tmp: DesignMatrix.from_arrays(_X3, np.ones(3), names=["x"]), ValueError,
     "names length must match the number of predictor columns"),
    (lambda tmp: DesignMatrix.from_arrays(_X3[:, 1], np.ones(3)).drop_rows([3]), IndexError,
     "row indices out of range for 3 rows"),
    (lambda tmp: DesignMatrix.from_arrays(_X3[:, 1], np.ones(3)).drop_rows([0, 1, 2]), ValueError,
     "dropping all rows leaves an empty design"),
    (lambda tmp: DesignMatrix.from_arrays(_X3[:, 1], np.ones(3)).level_codes("x1"), ValueError,
     "term 'x1' is not a factor"),
], ids=["schema-line", "schema-duplicate", "schema-duplicate-default", "build-lengths",
        "build-duplicate-names", "build-rows", "build-two-responses", "load-two-ids", "load-two-responses",
        "coerce-listed-twice", "encode-tab-label", "encode-lf-label", "encode-cr-label",
        "role-of-unknown", "column-of-unknown", "sparse-no-rows", "design-empty",
        "design-y-length", "design-names-length", "design-intercept", "design-term-groups",
        "design-repeated-column", "design-repeated-term", "encode-dummy-repeats-a-column",
        "from-arrays-names", "drop-rows-range", "drop-all-rows", "level-codes-numeric"])
def test_table_errors(tmp_path, call, error, message):
    with pytest.raises(error) as excinfo:
        call(tmp_path)
    assert message in str(excinfo.value)


def test_encode_design_leaves_out_exclude_columns():
    t = make_table(["id", "note", "x", "y"], ["id", "exclude", "numeric", "response"],
                   [[1, 2, 3], ["a", None, "c"], [1.0, 2.0, 4.0], [1.0, 0.0, 2.0]])
    d = encode_design(t)
    assert d.column_names == ("(Intercept)", "x")
    np.testing.assert_array_equal(d.X[:, 1], [1.0, 2.0, 4.0])


def test_subset_terms_and_take_rows():
    rng = np.random.default_rng(5)
    t = make_table(["id", "x1", "x2", "f", "y"],
                   ["id", "numeric", "numeric", "factor", "response"],
                   [np.arange(10), rng.standard_normal(10), rng.standard_normal(10),
                    rng.choice(["a", "b"], size=10), rng.standard_normal(10)])
    d = encode_design(t)
    sub = d.subset_terms(["f", "x1"])        # order comes from the design, not the call
    assert sub.term_names == ("x1", "f")
    assert sub.column_names == ("(Intercept)", "x1", "fb")
    rows = d.take_rows([0, 3, 4])
    assert rows.n_rows == 3 and rows.term_names == d.term_names
    with pytest.raises(KeyError):
        d.subset_terms(["ghost"])


def test_model_formula():
    assert model_formula(("a", "b"), "y") == "y ~ a + b"
    assert model_formula((), "y") == "y ~ 1"
