import csv
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import BSpline, make_lsq_spline

import funvar.curves as curves
from funvar.curves import (
    Curve,
    CurveSet,
    Grid,
    _bspline_basis,
    _spline_knots,
    _spline_operator,
    _write_rows,
    derivative,
    derivative_set,
    integrate,
    iter_curves_csv,
    read_curves_csv,
    read_responses_csv,
    uniform_grid,
    write_curves_csv,
    write_responses_csv,
)

import oracles


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.array([0.0]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        Grid(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, np.inf]))


def test_uniform_grid_default_spans_unit_interval():
    g = uniform_grid(101)
    assert g.size == 101
    assert g.points[0] == -1.0 and g.points[-1] == 1.0
    assert_allclose(np.diff(g.points), 0.02)


def test_trapezoid_weights_match_loop_oracle():
    rng = np.random.default_rng(0)
    pts = np.sort(rng.uniform(-1, 1, 17))
    g = Grid(pts)
    vals = rng.standard_normal(17)
    assert_allclose(
        float(vals @ g.trapezoid_weights), oracles.trapezoid(vals, pts), atol=1e-12
    )


def test_integrate_polynomial():
    g = uniform_grid(101)
    c = Curve(g, g.points**2)
    # trapezoid error for t^2 on a uniform grid is h^2/6 * (b - a) * f''/2
    assert integrate(c) == pytest.approx(2.0 / 3.0, abs=2e-4)


def test_equal_grids_hash_equal_and_work_as_dict_keys():
    a = Grid(np.array([-1.0, -0.0, 1.0]))
    b = Grid(np.array([-1.0, 0.0, 1.0]))
    assert a == b and hash(a) == hash(b)
    assert hash(uniform_grid(11)) == hash(uniform_grid(11))
    table = {a: "a"}
    assert table[b] == "a"
    assert uniform_grid(11) not in table


def test_curve_validation():
    g = uniform_grid(5)
    with pytest.raises(ValueError):
        Curve(g, np.ones(4))
    with pytest.raises(ValueError):
        Curve(g, np.array([1.0, 2.0, np.nan, 0.0, 1.0]))


def test_curveset_roundtrip_and_subset():
    g = uniform_grid(7)
    rng = np.random.default_rng(1)
    cs = CurveSet(g, rng.standard_normal((4, 7)))
    assert len(cs) == 4
    again = CurveSet.from_curves([cs.curve(i) for i in range(4)])
    assert np.array_equal(again.values, cs.values)
    sub = cs.subset([2, 0])
    assert np.array_equal(sub.values[0], cs.values[2])
    assert np.array_equal(sub.values[1], cs.values[0])


def test_derivative_order_zero_is_identity():
    g = uniform_grid(9)
    c = Curve(g, np.sin(g.points))
    assert derivative(c, 0) is c


def test_finite_diff_linear_is_exact():
    g = uniform_grid(11)
    c = Curve(g, 3.0 * g.points + 2.0)
    d = derivative(c, 1)
    assert_allclose(d.values, 3.0, atol=1e-12)


def test_finite_diff_matches_oracle():
    rng = np.random.default_rng(2)
    pts = np.sort(rng.uniform(0, 1, 13))
    g = Grid(pts)
    vals = rng.standard_normal(13)
    d = derivative(Curve(g, vals), 1)
    assert_allclose(d.values, oracles.finite_diff(vals, pts), atol=1e-12)
    d2 = derivative(Curve(g, vals), 2)
    assert_allclose(d2.values, oracles.nth_derivative(vals, pts, 2), atol=1e-12)


def test_finite_diff_sin_accuracy():
    g = uniform_grid(201)
    d = derivative(Curve(g, np.sin(g.points)), 1)
    assert_allclose(d.values[1:-1], np.cos(g.points)[1:-1], atol=1e-3)


def test_bspline_derivative_on_polynomial():
    g = uniform_grid(60)
    c = Curve(g, g.points**3)
    d2 = derivative(c, 2, method="bspline", knots=10, degree=4)
    assert_allclose(d2.values, 6.0 * g.points, atol=1e-6)


def test_bspline_rejects_degree_not_above_order():
    g = uniform_grid(30)
    c = Curve(g, g.points)
    with pytest.raises(ValueError):
        derivative(c, 2, method="bspline", degree=2)


def test_bspline_rejects_too_few_points():
    g = uniform_grid(5)
    c = Curve(g, g.points)
    with pytest.raises(ValueError):
        derivative(c, 1, method="bspline", knots=20, degree=3)


def test_bspline_derivative_matches_a_direct_spline_fit():
    # the cached operator against fitting the curves themselves
    rng = np.random.default_rng(7)
    g = Grid(np.sort(np.r_[-1.0, 1.0, rng.uniform(-1, 1, 48)]))
    cs = CurveSet(g, np.sin(3 * g.points) + 0.2 * rng.standard_normal((6, 50)))
    for order, degree in ((1, 3), (2, 5)):
        spl = make_lsq_spline(g.points, cs.values.T, _spline_knots(g.points, 12, degree),
                              k=degree)
        expect = spl.derivative(order)(g.points).T
        got = derivative_set(cs, order, "bspline", knots=12, degree=degree).values
        assert_allclose(got, expect, rtol=0, atol=1e-10 * np.abs(expect).max())


def nonuniform_grid(seed, size):
    rng = np.random.default_rng(seed)
    return Grid(np.sort(np.r_[-1.0, 1.0, rng.uniform(-1, 1, size - 2)]))


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_bspline_basis_is_scipys_and_a_partition_of_unity(degree):
    x = nonuniform_grid(5, 40).points
    t = _spline_knots(x, 9, degree)
    b = _bspline_basis(x, t, degree)
    assert b.shape == (40, 9 + degree + 1)
    assert_allclose(b, BSpline.design_matrix(x, t, degree).toarray(), rtol=0, atol=1e-14)
    assert_allclose(b.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    # the right end belongs to the last span: only the last B-spline is nonzero there
    assert np.array_equal(b[-1], np.eye(b.shape[1])[-1])


def test_bspline_basis_skips_spans_of_zero_length():
    # a double interior knot: the span between its copies adds no term
    t = np.r_[[0.0] * 4, 0.5, 0.5, [1.0] * 4]
    x = np.linspace(0, 1, 11)
    b = _bspline_basis(x, t, 3)
    assert np.all(np.isfinite(b))
    assert_allclose(b, BSpline.design_matrix(x, t, 3).toarray(), rtol=0, atol=1e-14)


@pytest.mark.parametrize("order, degree", [(1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (3, 5)])
@pytest.mark.parametrize("seed, size, knots", [(1, 50, 12), (2, 101, 20), (3, 30, 5)])
def test_spline_operator_is_the_scipy_spline_derivative(order, degree, seed, size, knots):
    g = nonuniform_grid(seed, size)
    spl = make_lsq_spline(g.points, np.eye(size), _spline_knots(g.points, knots, degree),
                          k=degree)
    expect = spl.derivative(order)(g.points)
    got = _spline_operator(g, order, knots, degree)
    assert not got.flags.writeable
    assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())


def clustered_grid():
    # 29 points within 3e-11 and one at 1: the last B-splines differ only at
    # that one point, so the least-squares design has numerically deficient rank
    return Grid(np.r_[np.arange(29) * 1e-12, 1.0])


def test_a_rank_deficient_spline_design_is_refused():
    with pytest.raises(ValueError, match="rank-deficient spline design"):
        derivative_set(CurveSet(clustered_grid(), np.ones((2, 30))), 1, "bspline",
                       knots=5, degree=3)


def test_an_ill_conditioned_spline_design_is_refused():
    # on 101 uniform points the default design (20 knots, degree 3) has
    # condition number 4.7; 97 knots have 1.5e7 and entries up to 7e8
    g = uniform_grid(101)
    assert np.abs(_spline_operator(g, 1, 20, 3)).max() < 100
    for order, knots, degree in ((1, 97, 3), (1, 95, 3), (2, 90, 4), (1, 80, 5)):
        with pytest.raises(ValueError, match="^ill-conditioned spline design"):
            _spline_operator(g, order, knots, degree)
    with pytest.raises(ValueError, match="condition number 1.52e[+]07 above 1000$"):
        derivative_set(CurveSet(g, np.ones((2, 101))), 1, "bspline", knots=97, degree=3)
    # the most knots of each degree below the bound, in steps of 10
    for knots, degree in ((90, 3), (80, 4), (70, 5)):
        assert np.all(np.isfinite(_spline_operator(g, 1, knots, degree)))


def test_derivative_unknown_method():
    g = uniform_grid(8)
    with pytest.raises(ValueError):
        derivative(Curve(g, g.points), 1, method="splines")


def test_derivative_set_matches_per_curve():
    rng = np.random.default_rng(3)
    g = uniform_grid(25)
    cs = CurveSet(g, rng.standard_normal((5, 25)))
    for method, kw in (("finite_diff", {}), ("bspline", {"knots": 8, "degree": 3})):
        ds = derivative_set(cs, 1, method=method, **kw)
        for i in range(5):
            one = derivative(cs.curve(i), 1, method=method, **kw)
            assert_allclose(ds.values[i], one.values, atol=1e-10)


def test_curves_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(4)
    pts = np.sort(rng.uniform(-1, 1, 12))
    cs = CurveSet(Grid(pts), rng.standard_normal((6, 12)) * 1e-3)
    path = tmp_path / "c.csv"
    write_curves_csv(path, cs)
    back = read_curves_csv(path)
    assert np.array_equal(back.grid.points, cs.grid.points)
    assert np.array_equal(back.values, cs.values)


def test_responses_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    y = rng.standard_normal(9) * 42.0
    path = tmp_path / "y.csv"
    write_responses_csv(path, y)
    assert np.array_equal(read_responses_csv(path), y)


def test_edge_floats_round_trip_bit_for_bit(tmp_path):
    edge = np.array([-0.0, 5e-324, 2.5e-07, 1e-05, 1 / 3, 1e22, 1.7976931348623157e308])
    cs = CurveSet(Grid(edge), np.vstack([edge, -edge[::-1]]))
    write_curves_csv(tmp_path / "c.csv", cs)
    back = read_curves_csv(tmp_path / "c.csv")
    assert back.grid.points.tobytes() == edge.tobytes()
    assert back.values.tobytes() == cs.values.tobytes()
    write_responses_csv(tmp_path / "y.csv", edge)
    assert read_responses_csv(tmp_path / "y.csv").tobytes() == edge.tobytes()


def test_a_failed_write_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "c.csv"
    write_curves_csv(path, CurveSet(uniform_grid(5), np.arange(10.0).reshape(2, 5)))
    before = path.read_bytes()
    real = open

    class FullDisk:
        """A file that takes one write, then reports a full disk."""

        def __init__(self, *args, **kwargs):
            self.f, self.writes = real(*args, **kwargs), 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            if self.writes:
                raise OSError("disk full")
            self.writes += 1
            return self.f.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    monkeypatch.setattr(curves, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_curves_csv(path, CurveSet(uniform_grid(5), np.ones((3, 5))))
    with pytest.raises(OSError, match="disk full"):
        write_responses_csv(path, np.ones(3))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]  # no temporary file left


def csv_module_bytes(path, header, rows):
    """The bytes csv.writer writes for ``header`` and ``rows``, written to ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


EDGE_FLOATS = [1e-05, 1e16, -0.0, 5e-324, 2.5e-07, 1 / 3, 1e22, 1.7976931348623157e308]


def test_curve_and_response_files_are_the_bytes_csv_writes(tmp_path):
    edge = np.array(EDGE_FLOATS)
    cs = CurveSet(Grid(np.sort(edge)), np.vstack([edge, -edge[::-1]]))
    write_curves_csv(tmp_path / "c.csv", cs)
    assert (tmp_path / "c.csv").read_bytes() == csv_module_bytes(
        tmp_path / "ref.csv", ["t", *cs.grid.points.tolist()], cs.values.tolist())
    write_responses_csv(tmp_path / "y.csv", edge)
    assert (tmp_path / "y.csv").read_bytes() == csv_module_bytes(
        tmp_path / "ref.csv", ["y"], [[v] for v in EDGE_FLOATS])


def test_rows_of_ints_and_floats_are_the_bytes_csv_writes(tmp_path):
    # the shape of the truth, prediction, chemo-pair and small-ball tables:
    # an int index or flag next to floats
    big = [0, 1, -7, 2**63, -(2**64) - 1, 10**400]
    rows = [[i, x, -x, i % 2] for i, x in zip(big, EDGE_FLOATS)]
    header = ["index", "m_hat", "v_hat", "v_fallback"]
    _write_rows(tmp_path / "t.csv", header, iter(rows))
    assert (tmp_path / "t.csv").read_bytes() == csv_module_bytes(tmp_path / "ref.csv",
                                                                 header, rows)


def test_curves_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_curves_csv(path)


def test_curves_csv_parses_like_python_float(tmp_path):
    rng = np.random.default_rng(6)
    formats = ["{!r}", "{:.17g}", "{:.3e}", "{:.25f}", "{:+.12g}", "{:.40g}"]
    cells = [[formats[(i + j) % len(formats)].format(
                  float(rng.standard_normal()) * 10.0 ** int(rng.integers(-200, 200)))
              for j in range(4)] for i in range(30)]
    cells[3][1] = '"0.1"'  # a quoted field
    lines = ["t,0.0,0.25,0.5,1.0"] + [",".join(row) for row in cells]
    lines.insert(5, "")  # a blank line
    path = tmp_path / "c.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    got = read_curves_csv(path)
    expect = [[float(v.strip('"')) for v in row] for row in cells]
    assert np.array_equal(got.values, np.array(expect))
    assert np.array_equal(got.grid.points, [0.0, 0.25, 0.5, 1.0])


@pytest.mark.parametrize("body", ["", "\n\n", "1.0,2.0\n3.0\n", "1.0,x\n",
                                  "#1.0,2.0\n", "1.0,2.0,3.0\n"])
def test_curves_csv_rejects_missing_or_malformed_rows(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("t,0.0,1.0\n" + body)
    with pytest.raises(ValueError):
        read_curves_csv(path)


def test_curves_csv_in_chunks_are_the_whole_file_in_order(tmp_path):
    rng = np.random.default_rng(7)
    cs = CurveSet(uniform_grid(7), rng.standard_normal((23, 7)))
    path = tmp_path / "c.csv"
    write_curves_csv(path, cs)
    for lines, sizes in ((1, [1] * 23), (8, [8, 8, 7]), (23, [23]), (1024, [23])):
        chunks = list(iter_curves_csv(path, lines))
        assert [len(c) for c in chunks] == sizes
        assert all(c.grid == cs.grid for c in chunks)
        assert np.array_equal(np.vstack([c.values for c in chunks]), cs.values)


@pytest.mark.parametrize("lines", [1, 4, 1024])
@pytest.mark.parametrize("row", ["1.0,x,2.0", "1.0,2.0", "1.0,2.0,3.0,4.0", "   ", "\t"])
def test_a_malformed_row_is_named_by_its_line_in_the_file(tmp_path, lines, row):
    body = ["0.5,1.5,2.5"] * 12
    body.insert(3, "")  # blank lines count as lines
    body[9] = row  # line 11 of the file
    path = tmp_path / "bad.csv"
    path.write_text("t,0.0,0.5,1.0\n" + "\n".join(body) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 11 is not 3 numbers"):
        list(iter_curves_csv(path, lines))
    with pytest.raises(ValueError, match="line 11 "):
        read_curves_csv(path)


@pytest.mark.parametrize("header, message", [
    *[(h, "line 1 is not") for h in ("t,0,1_0", "t,0,x", "t,0,inf", "t,0,1,", "t,0,1;2")],
    *[(h, "first row must be the grid") for h in ("", "t", "t,0", "t,", "x,0,1")],
])
def test_a_grid_that_is_not_2_or_more_finite_numbers_is_refused(tmp_path, header, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n1,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns of a line with no data
        with pytest.raises(ValueError, match=message):
            read_curves_csv(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_responses_are_never_written(tmp_path, bad):
    path = tmp_path / "y.csv"
    with pytest.raises(ValueError, match="responses must be finite"):
        write_responses_csv(path, [1.0, bad])
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temporary one


@pytest.mark.parametrize("row", ["1.0,2.0", "1.0,", "abc", '""', "nan", "-inf", "1e400",
                                 "1_000", "   "])
def test_responses_csv_refuses_a_row_that_is_not_one_finite_number(tmp_path, row):
    path = tmp_path / "y.csv"
    path.write_text(f"y\n0.5\n\n{row}\n2.5\n")  # the blank line counts as a line
    with pytest.raises(ValueError, match=r"y\.csv: line 4 is not one finite number"):
        read_responses_csv(path)


def test_responses_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text('y\n0.5\n\n"2.5"\n-1\n\n')
    assert_array_equal(read_responses_csv(path), [0.5, 2.5, -1.0])


@pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
def test_a_responses_file_of_no_rows_is_refused_before_it_is_parsed(tmp_path, body):
    path = tmp_path / "y.csv"
    path.write_bytes(f"y\n{body}".encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns of a file with no data
        with pytest.raises(ValueError, match=r"y\.csv: no response rows"):
            read_responses_csv(path)


def test_responses_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z\n1.0\n")
    with pytest.raises(ValueError):
        read_responses_csv(path)
