"""Command-line interface: outputs, determinism, round-trips, exit codes."""

import json
import math

import pytest

from egregium import catalog, cli, exprlang, surfaces
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

    def test_catalog_surface_induces_metric(self, capsys):
        code, out, _ = run_cli(capsys, "geodesic", "--catalog", "torus",
                               "--start", "0.4,0,0.5,0.25",
                               "--length", "1.0", "--step", "0.005")
        assert code == 0
        assert float(csv_summary(out)["energy_drift"]) <= 1e-7

    def test_zero_max_rows_rejected(self, capsys):
        code, out, err = run_cli(capsys, "geodesic", "--catalog",
                                 "sphere_metric", "--start", "1.5,0,0,1",
                                 "--max-rows", "0")
        assert (code, out) == (2, "")
        assert err == "error: --max-rows must be positive, got 0\n"


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


class TestSurfaceKernel:
    """Every surface column comes from one grid-kernel call per invocation,
    with no per-point embedding evaluation, and matches the public
    per-quantity functions bit for bit."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = {"embedding_jets": 0, "surface_grid": 0}
        for name in calls:
            original = getattr(surfaces, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(surfaces, name, counting)
        return calls

    def test_surface_evaluates_embedding_once_per_grid(
            self, capsys, kernel_calls):
        code, _, _ = run_cli(capsys, "surface", "--catalog", "torus",
                             "--grid", "4x5")
        assert code == 0
        assert kernel_calls == {"embedding_jets": 0, "surface_grid": 1}

    def test_egregia_evaluates_embedding_once_per_grid(
            self, capsys, kernel_calls):
        code, _, _ = run_cli(capsys, "egregia", "--catalog", "torus",
                             "--grid", "4x5")
        assert code == 0
        assert kernel_calls == {"embedding_jets": 0, "surface_grid": 1}

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
        rows = [{"u": 0.0, "v": 1.0, "n": "text with inf and nan"}]
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
