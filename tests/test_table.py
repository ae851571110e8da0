import math

import numpy as np
import pytest

from regsel import (
    ColumnRole,
    RawTable,
    Schema,
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


def test_load_strict_numeric_parse_error(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("ID,x,y\n1,0.5,2\n2,oops,3\n")
    with pytest.raises(ValueError, match=r"column 'x'.*row 2.*'oops'"):
        load_table(f, {"ID": "id", "x": "numeric", "y": "response"})


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999"])
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
    from regsel.table import _parse_numeric
    rng = np.random.default_rng(79)
    doubles = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
    tokens = [repr(float(v)) for v in doubles] + [
        repr(0.1), repr(1 / 3), "-0.0", "4.9e-324", "2.5e-320", "1e308", "1_0", " nan", "inf",
        "NA", "", "abc"]
    schema = Schema({"ID": ColumnRole.ID, "x": ColumnRole.NUMERIC, "y": ColumnRole.RESPONSE},
                    lenient=frozenset({"x"}) if lenient else frozenset())
    f = tmp_path / "d.csv"
    for column in ([*tokens[:40]], *(["0.25", tok, "-3.5"] for tok in tokens)):
        f.write_text("ID,x,y\n" + "".join(f"{i},{c},{i}\n" for i, c in enumerate(column, start=1)))
        try:
            expected = np.array([_parse_numeric(c, "x", i, lenient)
                                 for i, c in enumerate(column, start=1)])
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                load_table(f, schema)
            assert str(info.value) == f"{f}: {exc}"
            continue
        got = load_table(f, schema).column("x")
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), column


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


def test_load_default_role_and_tab_delimiter(tmp_path):
    f = tmp_path / "d.tsv"
    f.write_text("ID\tx1\tx2\ty\n1\t0.1\t0.2\t5\n2\t0.3\t0.4\t6\n")
    schema = Schema(roles={"ID": ColumnRole.ID, "y": ColumnRole.RESPONSE},
                    default=ColumnRole.NUMERIC)
    t = load_table(f, schema, delimiter="\t")
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
