"""Command-line interface: outputs, determinism, round-trips, exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from egregium import (catalog, cli, exprlang, geodesics, intrinsic,
                      surfaces)
from egregium.cli import main
from egregium.errors import NumericError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def csv_summary(text):
    out = {}
    for ln in text.splitlines():
        if ln.startswith("# ") and "=" in ln:
            key, _, value = ln[2:].partition("=")
            out[key] = value
    return out


class TestCurveCommand:
    def test_catalog_circle2_constant_curvature(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--catalog", "circle2",
                               "--range", "0:6.28318", "--n", "100")
        assert code == 0
        assert out.startswith("# egregium-csv v1\n")
        rows = csv_rows(out)
        assert len(rows) == 100
        for row in rows:
            assert abs(float(row["kappa"]) - 0.5) <= 1e-9

    def test_graph_parabola_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--graph", "x^2",
                               "--range", "-1:1", "--n", "3")
        assert code == 0
        rows = csv_rows(out)
        middle = rows[1]
        assert float(middle["param"]) == 0.0
        assert float(middle["kappa"]) == pytest.approx(2.0, abs=1e-12)

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--graph", "sin(",
                               "--range", "-1:1", "--n", "3")
        assert code == 2
        assert "offset 4" in err

    def test_implicit_with_points(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--implicit", "x^2+y^2-4",
                               "--at", "2,0", "--at", "0,2")
        assert code == 0
        for row in csv_rows(out):
            assert abs(float(row["kappa"]) - 0.5) <= 1e-12

    def test_off_curve_point_is_numeric_failure(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--implicit", "x^2+y^2-4",
                               "--at", "1,0")
        assert code == 3

    def test_parametric_curve_input(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--parametric", "2*cos(t)",
                               "2*sin(t)", "--range", "0:6.28", "--n", "7")
        assert code == 0
        for row in csv_rows(out):
            assert abs(float(row["kappa"]) - 0.5) <= 1e-12


class TestParametricValues:
    """--parametric takes expressions that start with '-', as given."""

    @pytest.mark.parametrize("argv", [
        ("curve", "--parametric", "-sin(t)", "cos(t)", "--n", "5"),
        ("curve", "--parametric", "cos(t)", "-2*sin(t)", "--range", "0:1",
         "--n", "4"),
        ("curve", "--parametric", "-1", "--t", "--n", "3"),
        ("surface", "--parametric", "-p", "q", "-p^2-q^2", "--grid", "3x3"),
        ("egregia", "--parametric", "-p", "-q", "p*q", "--grid", "2x2",
         "--format", "json"),
    ])
    def test_values_may_start_with_minus(self, capsys, argv):
        got = run_cli(capsys, *argv)
        assert got[0] == 0
        # behind a space, argparse already read them as values, and the
        # expression parser skips the space
        start = argv.index("--parametric") + 1
        stop = start + (2 if argv[0] == "curve" else 3)
        spaced = [" " + token if start <= i < stop else token
                  for i, token in enumerate(argv)]
        assert run_cli(capsys, *spaced) == got

    def test_error_offsets_count_from_the_value_as_given(self, capsys):
        assert run_cli(capsys, "curve", "--parametric", "-sin(", "t") == (
            2, "", "error: expected expression at offset 5\n")


class TestSurfaceCommand:
    def test_sphere_kappa_column(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--catalog", "sphere",
                               "--radius", "2", "--grid", "10x10")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 100
        for row in rows:
            assert abs(float(row["kappa"]) - 0.25) <= 1e-9

    def test_plane_all_flat(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--catalog", "plane",
                               "--grid", "5x5")
        assert code == 0
        for row in csv_rows(out):
            for col in ("kappa", "k_min", "k_max"):
                assert abs(float(row[col])) <= 1e-12

    def test_torus_outer_equator(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--catalog", "torus",
                               "--Rmaj", "2", "--r", "1", "--grid", "20x20")
        assert code == 0
        rows = csv_rows(out)
        outer = [row for row in rows if float(row["p"]) == 0.0]
        assert outer
        for row in outer:
            assert abs(float(row["kappa"]) - 1.0 / 3.0) <= 1e-9

    def test_graph_surface_input(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--graph", "x*y",
                               "--grid", "3x3")
        assert code == 0
        origin = [row for row in csv_rows(out)
                  if float(row["p"]) == 0.0 and float(row["q"]) == 0.0]
        assert origin and abs(float(origin[0]["kappa"]) + 1.0) <= 1e-12


class TestEgregiaCommand:
    def test_sphere_defect(self, capsys):
        code, out, _ = run_cli(capsys, "egregia", "--catalog", "sphere",
                               "--radius", "2", "--grid", "20x20")
        assert code == 0
        assert float(csv_summary(out)["max_defect"]) <= 1e-8

    def test_flat_metric(self, capsys):
        code, out, _ = run_cli(capsys, "egregia", "--metric", "1,0,1",
                               "--grid", "5x5")
        assert code == 0
        for row in csv_rows(out):
            assert float(row["kappa_intrinsic"]) == 0.0

    def test_exponential_metric(self, capsys):
        code, out, _ = run_cli(capsys, "egregia", "--metric", "1,0,exp(2*u)",
                               "--grid", "5x5")
        assert code == 0
        for row in csv_rows(out):
            assert abs(float(row["kappa_intrinsic"]) + 1.0) <= 1e-9


class TestFlatnessCommand:
    @pytest.mark.parametrize("name,verdict", [
        ("cone_metric", "FLAT"),
        ("flat", "FLAT"),
        ("sphere_metric", "NOT FLAT"),
    ])
    def test_verdicts(self, capsys, name, verdict):
        code, out, _ = run_cli(capsys, "flatness", "--catalog", name,
                               "--grid", "5x5")
        assert code == 0
        assert csv_summary(out)["verdict"] == verdict


class TestGaussBonnetCommand:
    def test_full_sphere(self, capsys):
        code, out, _ = run_cli(capsys, "gaussbonnet", "--catalog",
                               "sphere_metric")
        assert code == 0
        total = float(csv_summary(out)["total"])
        assert abs(total - 4.0 * math.pi) <= 1e-6

    def test_full_torus(self, capsys):
        code, out, _ = run_cli(capsys, "gaussbonnet", "--catalog",
                               "torus_metric")
        assert code == 0
        assert abs(float(csv_summary(out)["total"])) <= 1e-6

    def test_flat_rectangle(self, capsys):
        code, out, _ = run_cli(capsys, "gaussbonnet", "--metric", "1,0,1",
                               "--urange", "0:1", "--vrange", "0:1")
        assert code == 0
        assert abs(float(csv_summary(out)["total"])) <= 1e-12

    def test_zero_order_rejected(self, capsys):
        code, out, err = run_cli(capsys, "gaussbonnet", "--catalog",
                                 "sphere_metric", "--order", "0")
        assert (code, out) == (2, "")
        assert err == "error: --order must be positive, got 0\n"

    def test_empty_rectangle_is_bad_input(self, capsys):
        code, out, err = run_cli(capsys, "gaussbonnet", "--catalog",
                                 "sphere_metric", "--urange", "1:1")
        assert (code, out) == (2, "")
        assert err == ("error: empty rectangle Rect(u0=1.0001, u1=0.9999, "
                       "v0=0.0, v1=6.283185307179586)\n")

    def test_degenerate_node_reports_the_per_point_error(self, capsys):
        # E vanishes at the centre node only, so the grid evaluation is
        # refused and the node-by-node pass names the point
        code, out, err = run_cli(capsys, "gaussbonnet", "--metric",
                                 "u^2+v^2,0,1", "--urange=-1:1",
                                 "--vrange=-1:1", "--order", "3")
        assert (code, out) == (3, "")
        assert err == ("numeric failure: metric not positive definite at "
                       "(0.0, 0.0): E=0.0, F=0.0, G=1.0\n")


class TestTriangleCommand:
    def test_sphere_octant(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--catalog",
                               "sphere_isothermal",
                               "--vertices", "0,0;1,0;0,1")
        assert code == 0
        summary = csv_summary(out)
        assert abs(float(summary["excess"]) - math.pi / 2.0) <= 1e-3
        assert abs(float(summary["integral"]) - math.pi / 2.0) <= 1e-3
        assert float(summary["difference"]) <= 1e-3

    def test_flat_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--metric", "1,0,1",
                               "--vertices", "0,0;1,0;0,1")
        assert code == 0
        summary = csv_summary(out)
        assert abs(float(summary["excess"])) <= 1e-10
        assert abs(float(summary["integral"])) <= 1e-10

    def test_hyperbolic_triangle_negative_excess(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--catalog",
                               "hyperbolic_disk",
                               "--vertices", "0,0;0.3,0;0,0.3")
        assert code == 0
        summary = csv_summary(out)
        assert float(summary["excess"]) < 0.0
        assert float(summary["difference"]) <= 1e-3

    @pytest.mark.parametrize("vertices", [
        "0,0;1,0;0,1", "0,0;0.6,0.1;0.1,0.5", "-0.5,-0.5;0.7,-0.2;0.1,0.9"])
    def test_excess_law_holds_on_the_sides_themselves(self, capsys,
                                                      vertices):
        # the integral runs over the region the geodesic sides bound, so
        # only the shooting tolerance is left in the difference
        code, out, _ = run_cli(capsys, "triangle", "--catalog",
                               "sphere_isothermal", "--vertices", vertices)
        assert code == 0
        assert float(csv_summary(out)["difference"]) < 1e-6

    @pytest.mark.parametrize("vertices, error", [
        ("0,0;0,0;0,0", "error: triangle vertices (0.0, 0.0) and (0.0, 0.0) "
                        "are closer than tol=1e-06\n"),
        ("0,0;1,0;1,1e-7", "error: triangle vertices (1.0, 0.0) and "
                           "(1.0, 1e-07) are closer than tol=1e-06\n"),
    ])
    def test_coincident_vertices_are_bad_input(self, capsys, vertices,
                                               error):
        # a zero-length side has no direction, so the vertex angle used to
        # end in a ZeroDivisionError traceback
        assert run_cli(capsys, "triangle", "--catalog", "catenoid",
                       "--vertices", vertices) == (2, "", error)

    @pytest.mark.parametrize("vertices, error", [
        ("0,0;1e155,0;0,1", "numeric failure: squared distance from a shot "
                            "to (1e+155, 0.0) overflows\n"),
        ("0,0;1e157,0;0,1", "numeric failure: metric length of (3.125e+155, "
                            "0.0) at (1.5625e+155, 0.0) overflows\n"),
    ])
    def test_far_vertex_is_a_numeric_failure(self, capsys, vertices, error):
        # float ** overflowed in the shot's nearest sample and in the
        # chord's metric length, and ended in an OverflowError traceback
        assert run_cli(capsys, "triangle", "--metric", "1,0,1",
                       "--vertices", vertices) == (3, "", error)


class TestGeodesicCommand:
    def test_equator_run(self, capsys):
        code, out, _ = run_cli(capsys, "geodesic", "--catalog",
                               "sphere_metric",
                               "--start", "1.5707963267948966,0,0,1",
                               "--length", "1.0", "--step", "0.001")
        assert code == 0
        assert float(csv_summary(out)["energy_drift"]) <= 1e-7
        for row in csv_rows(out):
            assert abs(float(row["u"]) - math.pi / 2.0) <= 1e-8

    def test_degenerate_metric_is_numeric_failure(self, capsys):
        code, _, err = run_cli(capsys, "geodesic", "--metric", "1,0,u",
                               "--start", "-1,0,1,0", "--length", "0.5",
                               "--step", "0.01")
        assert code == 3

    def test_degenerate_metric_is_named_where_a_stage_meets_it(self, capsys):
        # the path crosses u = 0 within a step; the failing point is the
        # first RK4 stage that evaluates there
        assert run_cli(capsys, "geodesic", "--metric", "u,0,1", "--start",
                       "0.5,0,-1,0.1", "--length", "2", "--step",
                       "0.01") == (
            3, "", "numeric failure: metric not positive definite at "
            "(-0.013294030798171375, 0.033606722016672246): "
            "E=-0.013294030798171375, F=0.0, G=1.0\n")

    def test_step_guard_names_the_step_count(self, capsys):
        assert run_cli(capsys, "geodesic", "--catalog", "sphere_metric",
                       "--start", "0.3,0,1,1", "--length", "20", "--step",
                       "0.05") == (
            3, "", "numeric failure: energy drift 0.0022506512718718638 "
            "after 57 steps of 0.05\n")

    def test_overflowing_initial_speed_is_named(self, capsys):
        # the speed overflowed to inf, so every step and arclength was
        # 0 * inf and the run failed as "non-finite s=nan"
        assert run_cli(capsys, "geodesic", "--metric", "1,0,1", "--start",
                       "0,0,1e155,0", "--length", "1", "--step",
                       "0.1") == (
            3, "", "numeric failure: metric speed of the initial velocity "
            "(1e+155, 0.0) overflows\n")

    def test_catalog_surface_induces_metric(self, capsys):
        code, out, _ = run_cli(capsys, "geodesic", "--catalog", "torus",
                               "--start", "0.4,0,0.5,0.25",
                               "--length", "1.0", "--step", "0.005")
        assert code == 0
        assert float(csv_summary(out)["energy_drift"]) <= 1e-7

    @pytest.mark.parametrize("length", ["3", "1000"])
    @pytest.mark.parametrize("max_rows", [1, 2, 3, 200])
    def test_max_rows_bounds_the_rows(self, capsys, length, max_rows):
        # a straight line with unit steps: 4 and 1,001 states
        argv = ("geodesic", "--metric", "1,0,1", "--start", "0,0,1,0",
                "--length", length, "--step", "1")
        _, out, _ = run_cli(capsys, *argv, "--max-rows", str(max_rows))
        _, every, _ = run_cli(capsys, *argv, "--max-rows", "2000")
        states = int(length) + 1
        assert int(csv_summary(every)["n_steps"]) == states - 1
        assert len(csv_rows(every)) == states
        # every stride-th state from the first, with the smallest stride
        # that prints at most --max-rows
        stride = min(k for k in range(1, states + 1)
                     if len(range(0, states, k)) <= max_rows)
        rows = csv_rows(out)
        assert len(rows) <= max_rows
        assert rows == csv_rows(every)[::stride]

    def test_zero_max_rows_rejected(self, capsys):
        code, out, err = run_cli(capsys, "geodesic", "--catalog",
                                 "sphere_metric", "--start", "1.5,0,0,1",
                                 "--max-rows", "0")
        assert (code, out) == (2, "")
        assert err == "error: --max-rows must be positive, got 0\n"

    @pytest.mark.parametrize("flag, value", [
        ("--length", "nan"), ("--step", "nan"), ("--step", "inf")])
    def test_non_finite_length_or_step_rejected(self, capsys, flag, value):
        # NaN used to reach math.ceil, and an infinite step made one RK4
        # step over the whole length
        code, out, err = run_cli(capsys, "geodesic", "--catalog",
                                 "sphere_metric", "--start", "1.5,0,0,1",
                                 flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be finite, got {float(value)!r}\n"

    @pytest.mark.parametrize("flags, message", [
        (("--start", "1.5,0,0,0"), "initial velocity must be nonzero"),
        (("--start", "1.5,0,0,1", "--step", "-0.01"),
         "step must be positive, got -0.01"),
    ])
    def test_bad_start_or_step_is_bad_input(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "geodesic", "--catalog",
                                 "sphere_metric", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"



class TestNegativeFloatFlags:
    """A float flag takes a negative value in any spelling: argparse reads
    -1e-3 as a flag, so `main` joins the pair as --flag=value."""

    @pytest.mark.parametrize("argv, code, error", [
        (("curve", "--catalog", "circle", "--radius", "-1e-3", "--n", "2"),
         0, ""),
        (("curve", "--catalog", "ellipse", "--a", "-2e0", "--b", "-1e-1",
          "--n", "3"), 0, ""),
        (("geodesic", "--catalog", "sphere_metric", "--start", "1,0,0,1",
          "--length", "-1e-2", "--step", "0.01"), 0, ""),
        (("geodesic", "--catalog", "sphere_metric", "--start", "1,0,0,1",
          "--step", "-1e-3"), 2, "error: step must be positive, got -0.001\n"),
        (("triangle", "--catalog", "flat", "--vertices", "0,0;1,0;0,1",
          "--tol", "-1e-3"), 2, "error: --tol must be positive, got -0.001\n"),
        (("flatness", "--catalog", "flat", "--grid", "2x2", "--tol",
          "-inf"), 2, "error: --tol must be positive, got -inf\n"),
        (("gaussbonnet", "--catalog", "torus_metric", "--order", "4",
          "--r", "-5e-1"), 0, ""),
    ])
    def test_reaches_the_subcommand(self, capsys, argv, code, error):
        got = run_cli(capsys, *argv)
        assert (got[0], got[2]) == (code, error)
        joined, i = [], 0
        while i < len(argv):
            if argv[i] in cli._VALUE_FLAGS:
                joined.append(f"{argv[i]}={argv[i + 1]}")
                i += 2
            else:
                joined.append(argv[i])
                i += 1
        assert run_cli(capsys, *joined) == got

    def test_a_flag_as_the_value_is_still_refused(self, capsys):
        code, out, err = _outcome(capsys, main, ("curve", "--catalog",
                                                 "circle", "--radius", "--n",
                                                 "2"))
        assert (code, out) == (2, "")
        assert "argument --radius: invalid float value: '--n'" in err


def test_a_value_error_inside_a_subcommand_is_not_bad_input(capsys,
                                                            monkeypatch):
    # a ValueError from a subcommand is a bug, not a user error: it is not
    # reported as `error: ...` with exit 2
    def broken(*args):
        raise ValueError("internal")
    monkeypatch.setattr(geodesics, "integrate_geodesic", broken)
    with pytest.raises(ValueError, match="^internal$"):
        main(["geodesic", "--catalog", "sphere_metric", "--start",
              "1,0,0,1"])
    assert capsys.readouterr().err == ""

class TestOutputFormats:
    def test_catalog_lists_entries(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        names = [row["name"] for row in csv_rows(out)]
        for expected in ("sphere", "torus", "catenoid", "helicoid",
                         "hyperbolic_disk", "monkey_saddle", "ellipsoid"):
            assert expected in names

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "surface", "--catalog", "torus",
                             "--grid", "6x6")
        _, out2, _ = run_cli(capsys, "surface", "--catalog", "torus",
                             "--grid", "6x6")
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "egregia", "--metric", "1,0,sin(u)^2",
                            "--urange", "0.4:2.6", "--grid", "4x4",
                            "--format", "json")
        payload = json.loads(out)
        assert "rows" in payload and "summary" in payload
        rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert rendered == out

    def test_csv_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "surface", "--catalog", "catenoid",
                            "--grid", "4x4")
        for row in csv_rows(out):
            value = float(row["kappa"])
            assert f"{value:.17g}" == row["kappa"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "curve", "--catalog", "parabola",
                               "--n", "5", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# egregium-csv v1\n")

    @pytest.mark.parametrize("where, reason", [
        (".", "Is a directory"),
        ("missing/rows.csv", "No such file or directory")])
    def test_unwritable_output_is_bad_input(self, capsys, tmp_path, where,
                                            reason):
        target = str(tmp_path / where)
        assert run_cli(capsys, "curve", "--catalog", "circle", "--n", "2",
                       "--output", target) == (
            2, "", f"error: cannot write --output {target!r}: {reason}\n")

    def test_json_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out, _ = run_cli(capsys, "flatness", "--catalog", "flat",
                               "--grid", "3x3", "--format", "json",
                               "--output", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["summary"]["verdict"] == "FLAT"

    def test_parametric_surface_input(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--parametric",
                               "cosh(p)*cos(q)", "cosh(p)*sin(q)", "p",
                               "--grid", "4x4", "--vrange", "0:6.28")
        assert code == 0
        for row in csv_rows(out):
            assert abs(float(row["mean"])) <= 1e-9

    def test_nonpositive_tolerance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "flatness", "--catalog", "flat",
                               "--grid", "3x3", "--tol", "-1")
        assert code == 2

    def test_unknown_catalog_entry(self, capsys):
        code, _, err = run_cli(capsys, "surface", "--catalog", "klein")
        assert code == 2
        assert "unknown catalog entry" in err


@pytest.mark.parametrize("value, shown", [("inf", "inf"), ("nan", "nan"),
                                          ("1e999", "inf")])
@pytest.mark.parametrize("argv, entry", [
    (("curve", "--catalog", "circle", "--n", "3"), "circle"),
    (("gaussbonnet", "--catalog", "sphere_metric", "--order", "4"),
     "sphere_metric"),
])
def test_non_finite_catalog_parameter_is_bad_input(capsys, argv, entry,
                                                   value, shown):
    assert run_cli(capsys, *argv, "--radius", value) == (
        2, "", f"error: '{entry}' parameter 'radius' must be finite, "
               f"got {shown}\n")


@pytest.mark.parametrize("argv, flag, text", [
    (("curve", "--catalog", "circle", "--n", "3", "--range"), "--range",
     "0:nan"),
    (("egregia", "--metric", "1,0,1", "--urange"), "--urange", "inf:inf"),
    (("surface", "--catalog", "torus", "--grid", "2x2", "--vrange"),
     "--vrange", "0:1e999"),
    (("curve", "--implicit", "x^2+y^2-1", "--at"), "--at", "-inf,0"),
    (("geodesic", "--catalog", "sphere_metric", "--start"), "--start",
     "nan,0,0,1"),
    (("triangle", "--catalog", "sphere_isothermal", "--vertices"),
     "--vertices", "0,0;nan,0;0,1"),
])
def test_non_finite_coordinate_is_bad_input(capsys, argv, flag, text):
    # the message names the flag and the value (one vertex of --vertices)
    shown = "nan,0" if flag == "--vertices" else text
    assert run_cli(capsys, *argv, text) == (
        2, "", f"error: {flag} must be finite, got {shown!r}\n")


@pytest.mark.parametrize("flag", ["--urange", "--prange", "--vrange",
                                  "--qrange"])
@pytest.mark.parametrize("text, message", [
    ("-inf:0", "{flag} must be finite, got '-inf:0'"),
    ("a:b", "non-numeric {flag} 'a:b'"),
    ("1", "expected {flag} as lo:hi, got '1'"),
])
def test_range_error_names_the_flag_typed(capsys, flag, text, message):
    # --prange and --qrange share a range with --urange and --vrange
    for tokens in ([f"{flag}={text}"], [flag, text]):
        assert run_cli(capsys, "egregia", "--metric", "1,0,1", *tokens) == (
            2, "", "error: " + message.format(flag=flag) + "\n")


@pytest.mark.parametrize("argv, abbreviation, flag, text", [
    (("egregia", "--metric", "1,0,1"), "--pran", "--prange", "-inf:0"),
    (("egregia", "--metric", "1,0,1"), "--qran", "--qrange", "-inf:0"),
    (("egregia", "--metric", "1,0,1"), "--ura", "--urange", "-inf:0"),
    (("triangle", "--catalog", "sphere_isothermal"), "--vert", "--vertices",
     "-nan,0;1,0;0,1"),
])
def test_abbreviated_value_flag_takes_a_value_starting_with_minus(
        capsys, argv, abbreviation, flag, text):
    # argparse reads the abbreviation as the flag, so its value is joined
    # to it as the full spelling's is
    expected = run_cli(capsys, *argv, flag, text)
    assert expected[0] == 2 and "must be finite" in expected[2]
    assert run_cli(capsys, *argv, abbreviation, text) == expected
    assert run_cli(capsys, *argv, f"{abbreviation}={text}") == expected


def test_ambiguous_abbreviation_is_refused(capsys):
    # --p abbreviates --parametric and --prange alike
    code, out, err = _outcome(capsys, main, ["egregia", "--metric", "1,0,1",
                                             "--p", "-inf:0"])
    assert (code, out) == (2, "")
    assert "ambiguous option: --p could match" in err


@pytest.mark.parametrize("catalog_name, cutoff", [
    ("sphere_metric", "-0.5"), ("torus", "-1"), ("torus", "-inf")])
def test_negative_or_non_finite_pole_cutoff_is_bad_input(capsys, catalog_name,
                                                         cutoff):
    # a negative cutoff widened the range past the chart's poles: the unit
    # sphere's total read 14.078 at -0.5, and -inf ended in a nan total
    assert run_cli(capsys, "gaussbonnet", "--catalog", catalog_name,
                   "--order", "8", "--pole-cutoff", cutoff) == (
        2, "", f"error: --pole-cutoff must be finite and non-negative, "
               f"got {float(cutoff)!r}\n")


class TestSurfaceKernel:
    """Every surface column comes from one kernel call over arrays per
    invocation, with no per-point embedding evaluation, and matches the
    public per-quantity functions bit for bit."""

    # the kernel functions counted, each with the argument whose type tells
    # arrays from points
    COUNTED = {"embedding_jets": lambda surface, p, q: p,
               "principal_values": lambda fff, nd, so: fff.E}

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        # (name, type of the point) -> calls
        calls = {}
        for name, point in self.COUNTED.items():
            original = getattr(surfaces, name)

            def counting(*args, _name=name, _point=point, _original=original):
                key = _name, type(_point(*args)).__name__
                calls[key] = calls.get(key, 0) + 1
                return _original(*args)

            monkeypatch.setattr(surfaces, name, counting)
        return calls

    def test_surface_evaluates_embedding_once_per_grid(
            self, capsys, kernel_calls):
        code, _, _ = run_cli(capsys, "surface", "--catalog", "torus",
                             "--grid", "4x5")
        assert code == 0
        assert kernel_calls == {("embedding_jets", "ndarray"): 1,
                                ("principal_values", "ndarray"): 1}

    def test_egregia_evaluates_embedding_once_per_grid(
            self, capsys, kernel_calls):
        code, _, _ = run_cli(capsys, "egregia", "--catalog", "torus",
                             "--grid", "4x5")
        assert code == 0
        assert kernel_calls == {("embedding_jets", "ndarray"): 1}

    @pytest.mark.parametrize("argv", [
        ("--catalog", "catenoid"), ("--graph", "x*y"),
        ("--catalog", "sphere", "--grid", "3x3", "--urange", "0:1")])
    def test_egregia_computes_no_principal_curvatures(self, capsys,
                                                      monkeypatch, argv):
        # egregia prints the parametric curvature only, on the grid path
        # and, past the sphere's pole at p = 0, on the per-point loop
        calls = []
        original = surfaces.principal_values

        def counting(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(surfaces, "principal_values", counting)
        code, _, _ = run_cli(capsys, "egregia", *argv)
        assert code in (0, 3)
        assert len(calls) == 0

    @pytest.mark.parametrize("argv, surface", [
        (("--catalog", "torus"),
         lambda: catalog.build_surface(catalog.lookup("torus"))),
        (("--graph", "x^2 - x*y + sin(y)/3"),
         lambda: surfaces.GraphSurface(exprlang.parse("x^2 - x*y + sin(y)/3"))),
    ])
    def test_rows_match_public_functions(self, capsys, argv, surface):
        code, out, _ = run_cli(capsys, "surface", *argv, "--grid", "5x4",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 20
        surf = surface()
        for row in rows:
            p, q = row["p"], row["q"]
            xj, yj, zj = surfaces.embedding_jets(surf, p, q)
            nd = surfaces.normal_parametric(surf, p, q)
            fff = surfaces.first_fundamental_form(surf, p, q)
            pc = surfaces.principal_curvatures(surf, p, q)
            expected = {
                "p": p, "q": q, "x": xj.v, "y": yj.v, "z": zj.v,
                "X": nd.X, "Y": nd.Y, "Z": nd.Z,
                "E": fff.E, "F": fff.F, "G": fff.G,
                "kappa": surfaces.gauss_curvature_parametric(surf, p, q),
                "k_min": pc.k_min, "k_max": pc.k_max, "mean": pc.mean,
            }
            assert row == expected

    def test_parametric_surface_rejects_x(self, capsys):
        code, out, err = run_cli(capsys, "surface", "--parametric",
                                 "x", "q", "0", "--grid", "2x2")
        assert code == 2
        assert out == ""
        assert err == "error: unbound variable 'x'\n"

    def test_metric_input_still_compares_against_graph(self, capsys):
        code, out, _ = run_cli(capsys, "egregia", "--metric", "1,0,1",
                               "--graph", "x*y", "--grid", "2x2")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 4
        for row in rows:
            assert float(row["kappa_intrinsic"]) == 0.0
            assert float(row["kappa_extrinsic"]) == pytest.approx(-1.0 / 9.0)


def test_parametric_curve_with_constant_component(capsys):
    # a constant component evaluates to a plain float, not a jet
    code, out, err = run_cli(capsys, "curve", "--parametric", "1", "t",
                             "--n", "3")
    assert code == 0, err
    for row in csv_rows(out):
        assert float(row["kappa"]) == 0.0
        assert (float(row["Tx"]), float(row["Ty"])) == (0.0, 1.0)


class TestNumericContract:
    """No inf or nan is printed with exit 0, and no traceback or warning
    reaches stderr."""

    @pytest.mark.parametrize("argv, error", [
        (("surface", "--graph", "1e200*x*y*1e200", "--grid", "2x2"),
         "numeric failure: non-finite z=inf at p=-1.0, q=-1.0\n"),
        (("surface", "--graph", "1e200*x*y*1e200", "--grid", "2x2",
          "--format", "json"),
         "numeric failure: non-finite z=inf at p=-1.0, q=-1.0\n"),
        (("egregia", "--metric", "1,0,1e300*u^2*1e300+1", "--grid", "2x2"),
         "numeric failure: non-finite kappa_intrinsic=nan at u=-1.0, "
         "v=-1.0\n"),
        (("curve", "--graph", "1e300*x^3*1e10", "--n", "3"),
         "numeric failure: non-finite y=-inf at param=-1.0, x=-1.0\n"),
    ])
    def test_non_finite_output_is_a_numeric_failure(self, capsys, argv,
                                                    error):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", error)

    def test_non_finite_output_file_is_not_written(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "surface", "--graph", "1e200*x*y*1e200",
                             "--grid", "2x2", "--output", str(target))
        assert code == 3
        assert not target.exists()

    def test_non_finite_summary_is_a_numeric_failure(self):
        rows = [(0.0, 1.0, "text with inf and nan")]
        cli._require_finite(["u", "v", "n"], rows, {"n": 1, "ok": 2.0})
        with pytest.raises(NumericError,
                           match=r"^non-finite summary drift=nan$"):
            cli._require_finite(["u", "v", "n"], rows,
                                {"drift": math.nan, "n": 1})

    def test_overflowing_grid_leaves_no_warning(self, capsys):
        code, _, err = run_cli(capsys, "surface", "--graph",
                               "1e200*x*y*1e200", "--grid", "3x3")
        assert code == 3
        assert "Warning" not in err
        assert err.count("\n") == 1

    def test_sqrt_of_subnormal_is_a_numeric_failure(self, capsys):
        # the derivative of sqrt(u*1e-320) used to divide by an underflowed
        # zero and end in a ZeroDivisionError traceback
        code, out, err = run_cli(capsys, "egregia", "--metric",
                                 "1,0,sqrt(u*1e-320)+1", "--urange", "0.5:1",
                                 "--grid", "2x2")
        assert (code, out) == (3, "")
        assert err == ("numeric failure: sqrt second derivative overflows "
                       "at 5e-321\n")

    @pytest.mark.parametrize("argv, error", [
        (("egregia", "--metric", "1,0,1+sin(u*1e308*10)", "--grid", "2x2"),
         "numeric failure: sin is undefined at -inf\n"),
        (("curve", "--graph", "sin(x*1e308*10)", "--n", "3"),
         "numeric failure: sin is undefined at -inf\n"),
        (("curve", "--graph", "cos(x*1e308*10)", "--range", "1:2", "--n",
          "3"), "numeric failure: cos is undefined at inf\n"),
    ])
    def test_libm_domain_error_is_a_numeric_failure(self, capsys, argv,
                                                     error):
        # math.sin, cos and tan raise ValueError at +-inf, which used to
        # be reported as bad input with exit 2
        assert run_cli(capsys, *argv) == (3, "", error)


def _outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of `parse(argv)`, which may exit."""
    try:
        code = parse(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    """`main` builds only the selected subcommand's flags; help and every
    argparse error still come from the full parser, byte for byte."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", [
        ("--help",),
        *[(name, "--help") for name in ("curve", "surface", "egregia",
                                        "flatness", "gaussbonnet",
                                        "triangle", "geodesic", "catalog")],
        ("curve", "--he"),
        (),
        ("klein",),
        ("--format", "csv", "curve"),
        ("triangle", "--catalog", "flat"),
        ("curve", "--n", "x"),
        ("curve", "--format", "xml"),
        ("curve", "--graph", "x^2", "extra"),
        ("curve", "--graph", "-h"),
        ("egregia", "--parametric", "p", "q"),
        # too few values: no expression is taken
        ("egregia", "--parametric", "-p", "q"),
        ("curve", "--parametric", "-sin(t)"),
        ("curve", "--parametric", "-h", "t"),
        ("catalog", "--parametric", "-p", "q", "r"),
    ])
    def test_help_and_errors_match_the_full_parser(self, capsys, argv):
        expected = _outcome(capsys, cli.build_parser().parse_args, argv)
        assert expected[0] in (0, 2)
        assert _outcome(capsys, main, argv) == expected

    def test_unrecognized_argument_lists_every_subcommand(self, capsys):
        code, out, err = _outcome(capsys, main,
                                  ("curve", "--graph", "x^2", "extra"))
        assert (code, out) == (2, "")
        assert err.startswith("usage: egregium [-h]")
        assert ("{curve,surface,egregia,flatness,gaussbonnet,triangle,"
                "geodesic,catalog}") in err
        assert err.endswith("error: unrecognized arguments: extra\n")

    def test_abbreviated_flag_parses_as_in_the_full_parser(self, capsys):
        argv = ["curve", "--cat", "circle2", "--n", "3"]
        assert (vars(cli.build_parser("curve").parse_args(argv))
                == vars(cli.build_parser().parse_args(argv)))
        assert (_outcome(capsys, main, argv)
                == _outcome(capsys, main, ["curve", "--catalog", "circle2",
                                           "--n", "3"]))

    @pytest.fixture
    def built(self, monkeypatch):
        commands = []
        build = cli.build_parser

        def recording(command=None):
            commands.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        return commands

    def test_a_run_builds_only_its_subcommand(self, capsys, built):
        code, _, _ = run_cli(capsys, "flatness", "--catalog", "flat",
                             "--grid", "2x2")
        assert code == 0
        assert built == ["flatness"]
        with pytest.raises(cli._ParseError, match="invalid choice: 'curve'"):
            cli.build_parser("flatness").parse_args(["curve"])

    def test_an_error_is_reported_by_the_full_parser(self, capsys, built):
        code, _, err = _outcome(capsys, main, ["curve", "--n", "x"])
        assert code == 2
        assert "invalid int value: 'x'" in err
        assert built == ["curve", None]


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_oracle(columns, rows, summary):
    """The CSV writer as it was: one f-string or str() per value."""
    lines = [cli.CSV_SCHEMA, ",".join(columns)]
    lines += [",".join(_fmt(value) for value in row) for row in rows]
    lines += [f"# {key}={_fmt(summary[key])}" for key in sorted(summary)]
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308,
                                1e308, -1e308, 1.7976931348623157e308,
                                math.inf, -math.inf, math.nan, 0.1, 1e16,
                                123456789012345680.0])
_FLOATS = st.one_of(st.floats(), _EDGE_FLOATS)
_VALUES = st.one_of(_FLOATS, _FLOATS.map(np.float64),
                    st.integers(min_value=-10**40, max_value=10**40),
                    st.sampled_from([10**17 + 1, -(2**63), 2**64]),
                    st.booleans(), st.text(max_size=8),
                    st.sampled_from(["FLAT", "NOT FLAT", "r=1 a=2", "%s",
                                     "%.17g", "-"]))


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 6))
    values = _FLOATS if draw(st.booleans()) else _VALUES
    rows = draw(st.lists(st.tuples(*[values] * width), max_size=6))
    summary = draw(st.dictionaries(st.text("abcdefgh_", min_size=1,
                                           max_size=6), _VALUES, max_size=3))
    return [f"c{i}" for i in range(width)], rows, summary


@given(_tables())
def test_csv_text_matches_per_value_formatting(table):
    assert cli._csv_text(*table) == _csv_oracle(*table)


class TestCurveEvaluations:
    """A curve's expressions are lowered once per invocation; the point,
    the frame and the curvature of a point are all read from its jets,
    which no tree walk computes, and no float evaluation runs."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = {"lower": 0, "jet": 0, "float": 0}
        evaluate, lower = exprlang.evaluate, exprlang.lower_jet2

        def counting(ast, bindings):
            floats = all(isinstance(value, (int, float))
                         for value in bindings.values())
            calls["float" if floats else "jet"] += 1
            return evaluate(ast, bindings)

        def counting_lower(asts, seeds):
            calls["lower"] += 1
            return lower(asts, seeds)

        monkeypatch.setattr(exprlang, "evaluate", counting)
        monkeypatch.setattr(exprlang, "lower_jet2", counting_lower)
        return calls

    @pytest.mark.parametrize("argv", [
        ("--graph", "x^3 - x", "--n", "5"),
        ("--parametric", "2*cos(t)", "sin(t)", "--n", "5"),
        ("--implicit", "x^2 + y^2 - 4", "--at", "2,0", "--at", "0,2",
         "--at", "-2,0", "--at", "0,-2", "--at", "1.2,1.6"),
    ])
    def test_evaluations_per_point(self, capsys, evaluations, argv):
        code, out, err = run_cli(capsys, "curve", *argv)
        assert code == 0, err
        assert len(csv_rows(out)) == 5
        assert evaluations == {"lower": 1, "jet": 0, "float": 0}

    @pytest.mark.parametrize("argv, error", [
        (("--parametric", "t^2", "t^3", "--range", "0:1", "--n", "3"),
         "numeric failure: velocity vanishes at t=0.0\n"),
        (("--implicit", "x^2 + y^2", "--at", "0,0"),
         "numeric failure: gradient vanishes at (0.0, 0.0)\n"),
    ])
    def test_singular_points_keep_their_messages(self, capsys, argv, error):
        assert run_cli(capsys, "curve", *argv) == (3, "", error)


class TestWorkBudgets:
    """Planned work beyond a budget is bad input, refused before any of it
    runs."""

    def test_geodesic_step_budget(self, capsys, monkeypatch):
        from egregium import geodesics

        def no_step(*args):
            raise AssertionError("integrated past the step budget")

        # every step comes from _compiled_step, and the start's first stage
        # from _right_hand_side
        monkeypatch.setattr(geodesics, "_compiled_step", no_step)
        monkeypatch.setattr(geodesics, "_right_hand_side", no_step)
        code, out, err = run_cli(capsys, "geodesic", "--catalog",
                                 "sphere_metric", "--start", "1.5,0,0,1",
                                 "--length", "1e12", "--step", "1e-9")
        assert (code, out) == (2, "")
        assert err == ("error: length 1000000000000.0 at step 1e-09 needs "
                       "more than the budget of 1000000 steps\n")

    def test_grid_budget(self, capsys, monkeypatch):
        def no_points(*args):
            raise AssertionError("built the points of a grid past the budget")

        monkeypatch.setattr(intrinsic, "grid_points", no_points)
        for command in ("surface", "egregia", "flatness"):
            code, out, err = run_cli(capsys, command, "--catalog", "plane"
                                     if command == "surface" else "flat",
                                     "--grid", "100000x100000")
            assert (code, out) == (2, "")
            assert err == ("error: grid 100000x100000 has 10000000000 "
                           "points, more than the budget of 1000000\n")

    def test_grid_budget_boundary(self):
        assert cli._parse_grid("1000x1000") == (1000, 1000)
        with pytest.raises(cli.InputError, match="budget"):
            cli._parse_grid("1000x1001")

    def test_curve_point_budget(self, capsys, monkeypatch):
        def no_lowering(*args, **kwargs):
            raise AssertionError("lowered a curve past the point budget")

        monkeypatch.setattr(exprlang, "lower_jet2", no_lowering)
        code, out, err = run_cli(capsys, "curve", "--graph", "x", "--n",
                                 "100000000")
        assert (code, out) == (2, "")
        assert err == ("error: --n 100000000 asks for more curve points "
                       "than the budget of 1000000\n")

    @pytest.mark.parametrize("order", [1001, 100000])
    def test_quadrature_node_budget(self, capsys, monkeypatch, order):
        from egregium import quad

        def no_rule(*args):
            raise AssertionError("built a rule past the node budget")

        monkeypatch.setattr(quad, "gauss_legendre", no_rule)
        code, out, err = run_cli(capsys, "gaussbonnet", "--metric", "1,0,1",
                                 "--urange", "0:1", "--vrange", "0:1",
                                 "--order", str(order))
        assert (code, out) == (2, "")
        assert err == (f"error: --order {order} gives {order * order} "
                       f"quadrature nodes per pass, more than the budget "
                       f"of 1000000\n")
