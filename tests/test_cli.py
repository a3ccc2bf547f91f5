import json
import math

import numpy as np
import pytest

from mahlerlab import cli, normalize
from mahlerlab.body import LinearMap3, cube, make_body
from mahlerlab.normalize import BoxPoint, fgh
from mahlerlab.quadrature import make_grid


def write_body(path, spec):
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def cube_file(tmp_path):
    return write_body(
        tmp_path / "cube.json",
        {"type": "polytope", "vertices": cube().vertices.tolist()},
    )


def square_file(tmp_path):
    return write_body(
        tmp_path / "square.json",
        {"dim": 2, "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
    )


def _radial_table(bad):
    values = np.ones((9, 8))
    values[4] = bad
    return {"type": "radial", "values": values.tolist()}


# body files whose numbers are non-finite or out of range, or whose dim is neither 2 nor 3
_MALFORMED_NUMBERS = {
    "lp_nan_axis": json.dumps({"type": "lp", "p": 3.0, "axes": [math.nan, 1.0, 1.0]}),
    "radial_nan_row": json.dumps(_radial_table(math.nan)),
    "radial_inf_row": json.dumps(_radial_table(math.inf)),
    "transformed_nan_matrix": json.dumps(
        {"type": "transformed", "base": {"type": "lp", "p": 3.0},
         "matrix": [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    ),
    "axis_1e999": '{"type": "lp", "p": 3.0, "axes": [1e999, 1.0, 1.0]}',
    "p_400_digits": '{"type": "lp", "p": 1' + "0" * 399 + "}",
    "dim_4": json.dumps({"type": "polytope", "dim": 4, "vertices": cube().vertices.tolist()}),
}


class TestExitCodes:
    def test_unknown_command(self):
        assert cli.run(["frobnicate", "--body", "x.json"]) == cli.EXIT_UNKNOWN

    def test_empty_argv(self):
        assert cli.run([]) == cli.EXIT_UNKNOWN

    def test_corrupt_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert cli.run(["vp", "--body", str(p)]) == cli.EXIT_PARSE

    def test_missing_file(self, tmp_path):
        assert cli.run(["vp", "--body", str(tmp_path / "no.json")]) == cli.EXIT_PARSE

    def test_asymmetric_vertices(self, tmp_path):
        p = write_body(
            tmp_path / "asym.json",
            {"type": "polytope", "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]]},
        )
        assert cli.run(["vp", "--body", p]) == cli.EXIT_INVALID

    def test_bad_grid(self, tmp_path, monkeypatch):
        bodies = {"vp": cube_file(tmp_path), "polar": cube_file(tmp_path), "verify2": square_file(tmp_path)}
        read = []
        monkeypatch.setattr(cli, "parse_body_file", read.append)
        # malformed, then well formed but outside what make_grid supports,
        # refused before the body file is read, also where no table is read
        for command, p in bodies.items():
            for size in ("tiny", "7x16", "8x18"):
                assert cli.run([command, "--body", p, "--grid", size]) == cli.EXIT_PARSE
        assert read == []

    def test_unwritable_output(self, tmp_path):
        p = cube_file(tmp_path)
        out = str(tmp_path / "nodir" / "rep.json")
        assert cli.run(["vp", "--body", p, "--grid", "32x64", "--out", out]) == cli.EXIT_IO

    def test_2d_body_into_3d_command(self, tmp_path):
        p = square_file(tmp_path)
        assert cli.run(["verify", "--body", p, "--grid", "32x64"]) == cli.EXIT_INVALID

    @pytest.mark.parametrize(
        "option", [["--threads", "2"], ["--seed", "1"], ["--curve", "512"], ["--n", "3"]]
    )
    def test_removed_options(self, tmp_path, option):
        p = cube_file(tmp_path)
        assert cli.run(["vp", "--body", p, "--grid", "32x64", *option]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("case", list(_MALFORMED_NUMBERS))
    def test_malformed_body_numbers(self, tmp_path, case):
        p = tmp_path / "body.json"
        p.write_text(_MALFORMED_NUMBERS[case], encoding="utf-8")
        assert cli.run(["vp", "--body", str(p), "--grid", "16x32"]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_sweep_side_below_one(self, tmp_path, n):
        p = cube_file(tmp_path)
        assert cli.run(["sweep", "--body", p, "--grid", "16x32", "--n", n]) == cli.EXIT_PARSE

    def test_ok(self, tmp_path):
        assert cli.run(["vp", "--body", cube_file(tmp_path), "--grid", "32x64"]) == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["vp", "polar", "verify2"])
    def test_polygon_area_overflow(self, tmp_path, command, capsys):
        # finite coordinates whose area overflows a double: a refused body
        p = write_body(
            tmp_path / "huge.json", {"dim": 2, "vertices": [[1e200, 0], [0, 1e200], [-1e200, 0], [0, -1e200]]}
        )
        assert cli.run([command, "--body", p]) == cli.EXIT_INVALID
        assert "invalid body" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["vp", "verify", "polar"])
    @pytest.mark.parametrize("case", ["cube_1e200", "image_1e200", "cube_1e150"])
    def test_polytope_volume_overflow(self, tmp_path, command, case, capsys):
        # finite vertices or matrix whose volume overflows a double: a refused body
        scale = 1e150 if case == "cube_1e150" else 1e200
        spec = {"type": "polytope", "vertices": (scale * cube().vertices).tolist()}
        if case == "image_1e200":
            spec = {"type": "transformed", "base": {"type": "polytope", "vertices": cube().vertices.tolist()},
                    "matrix": (1e200 * np.eye(3)).tolist()}
        p = write_body(tmp_path / "huge.json", spec)
        with np.errstate(all="ignore"):
            assert cli.run([command, "--body", p, "--grid", "32x64"]) == cli.EXIT_INVALID
        assert "polar volume is not a finite positive double" in capsys.readouterr().err

    def test_large_cube(self, tmp_path):
        # the facet rows of a 1e9 cube are 1e-9 apart: all six are kept
        p = write_body(tmp_path / "big.json", {"type": "polytope", "vertices": (1e9 * cube().vertices).tolist()})
        out = tmp_path / "vp.json"
        assert cli.run(["vp", "--body", p, "--grid", "32x64", "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["product"] == pytest.approx(32.0 / 3.0, rel=1e-12)

    def test_large_square(self, tmp_path):
        p = write_body(tmp_path / "big.json", {"dim": 2, "vertices": (1e100 * np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]])).tolist()})
        out = tmp_path / "vp.json"
        assert cli.run(["vp", "--body", p, "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["product"] == pytest.approx(8.0, rel=1e-15)


class TestGridTables:
    def test_gauss_legendre_solves(self, tmp_path, monkeypatch):
        # a polytope, a polar and a polygon read no table of the grid; a
        # smooth vp solves one rule where n_alpha / 2 == n_beta / 4, else two
        solves = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(n):
            solves.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        p, lp = cube_file(tmp_path), write_body(tmp_path / "lp.json", {"type": "lp", "p": 3.0})
        for argv in (["vp", "--body", p], ["polar", "--body", p], ["verify", "--body", p],
                     ["polar", "--body", lp], ["verify2", "--body", square_file(tmp_path)]):
            assert cli.run(argv) == cli.EXIT_OK
        assert solves == []
        assert cli.run(["vp", "--body", lp]) == cli.EXIT_OK
        assert solves == [64]
        assert cli.run(["vp", "--body", lp, "--grid", "64x256"]) == cli.EXIT_OK
        assert solves == [64, 32, 64]


class TestVp:
    def test_cube_values(self, tmp_path, capsys):
        code = cli.run(["vp", "--body", cube_file(tmp_path), "--grid", "64x128"])
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        vals = {ln.split()[0]: float(ln.split()[-1]) for ln in lines[:3]}
        assert vals["volume"] == pytest.approx(8.0, abs=1e-10)
        assert vals["polar"] == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert vals["product"] == pytest.approx(32.0 / 3.0, abs=1e-9)

    def test_2d_square(self, tmp_path, capsys):
        code = cli.run(["vp", "--body", square_file(tmp_path)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "8.0" in out

    def test_report_written(self, tmp_path):
        out = tmp_path / "vp.json"
        cli.run(["vp", "--body", cube_file(tmp_path), "--grid", "32x64", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["product"] == pytest.approx(32.0 / 3.0, abs=1e-9)


class TestPolar:
    def test_round_trip_radial_samples(self, tmp_path):
        spec = {"type": "lp", "p": 3.0, "axes": [1.0, 0.8, 1.2]}
        p = write_body(tmp_path / "lp.json", spec)
        out = tmp_path / "polar.json"
        assert cli.run(["polar", "--body", p, "--out", str(out)]) == cli.EXIT_OK
        Kp = cli.parse_body_file(str(out))
        want = make_body(spec)
        us = make_grid(16, 32).units
        # the polar of the polar descriptor must reproduce the gauge of
        # the original body on a sample of directions
        from mahlerlab.body import polar

        back = polar(Kp)
        assert np.allclose(back.gauge_many(us), want.gauge_many(us), atol=1e-12)

    def test_polytope_polar_descriptor(self, tmp_path):
        out = tmp_path / "polar.json"
        cli.run(["polar", "--body", cube_file(tmp_path), "--out", str(out)])
        spec = json.loads(out.read_text())
        assert spec["type"] == "polytope"
        assert len(spec["vertices"]) == 6


class TestEmitReport:
    def test_json_determinism(self, tmp_path):
        p = cube_file(tmp_path)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cli.run(["vp", "--body", p, "--grid", "32x64", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_sorted_keys(self, tmp_path):
        out = tmp_path / "r.json"
        cli.emit_report({"b": 1, "a": [np.float64(2.0)]}, "json", str(out))
        text = out.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_json_numpy_values(self, tmp_path):
        # arrays, float and integer scalars and np.bool_ are written as their Python values
        out = tmp_path / "r.json"
        report = {"a": np.arange(2.0), "b": np.bool_(True), "c": (np.int64(3), np.float64(0.1))}
        cli.emit_report(report, "json", str(out))
        assert json.loads(out.read_text()) == {"a": [0.0, 1.0], "b": True, "c": [3, 0.1]}

    def test_csv_round_trip_floats(self, tmp_path):
        out = tmp_path / "r.csv"
        rows = [[0.1, 1.0 / 3.0], [math.pi, 2.0]]
        cli.emit_report({"header": ["x", "y"], "rows": rows}, "csv", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y"
        got = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        assert got == rows

    def test_bad_format(self, tmp_path):
        from mahlerlab.errors import IoError

        with pytest.raises(IoError):
            cli.emit_report({}, "xml", str(tmp_path / "r.xml"))


class TestWinding:
    def test_csv_header_and_code(self, tmp_path):
        rng = np.random.default_rng(7)
        A = np.eye(3) + 0.12 * rng.standard_normal((3, 3))
        K = cube().transformed(LinearMap3(A))
        p = write_body(
            tmp_path / "pert.json",
            {"type": "polytope", "vertices": K.vertices.tolist()},
        )
        out = tmp_path / "w.csv"
        code = cli.run(["winding", "--body", p, "--grid", "48x96", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,G,H,angle"
        assert len(lines) > 100


class TestVerify2:
    def test_square(self, tmp_path, capsys):
        code = cli.run(["verify2", "--body", square_file(tmp_path)])
        assert code == cli.EXIT_OK
        assert "8.0" in capsys.readouterr().out

    def test_needs_2d(self, tmp_path):
        assert cli.run(["verify2", "--body", cube_file(tmp_path)]) == cli.EXIT_INVALID

    def test_report(self, tmp_path):
        out = tmp_path / "v2.json"
        cli.run(["verify2", "--body", square_file(tmp_path), "--out", str(out)])
        rep = json.loads(out.read_text())
        assert set(rep) == {
            "map", "b", "c", "piece_areas", "pairings", "area", "polar_area", "product", "bound_ok",
        }
        assert rep["bound_ok"] is True
        assert rep["product"] == pytest.approx(8.0, abs=1e-12)


class TestVerify:
    def test_cube_chain(self, tmp_path):
        out = tmp_path / "chain.json"
        code = cli.run(
            ["verify", "--body", cube_file(tmp_path), "--grid", "64x128", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert set(rep) == {
            "piece_volumes", "polar_pieces", "s_points", "r_points", "pairings",
            "section_areas", "projection_areas", "planar_products", "sum_products",
            "nine_quarter", "volume", "polar_volume", "product", "slack",
            "condition_residual", "applicable", "chain_ok",
        }
        assert rep["chain_ok"] is True
        assert rep["product"] == pytest.approx(32.0 / 3.0, abs=1e-9)


class TestNormalize:
    def test_cube_report(self, tmp_path):
        out = tmp_path / "norm.json"
        code = cli.run(["normalize", "--body", cube_file(tmp_path), "--grid", "32x64", "--out", str(out)])
        assert code == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert set(rep) == {"angles", "shear", "residual23", "fgh_norm", "volume"}


class TestSweep:
    def test_lp_ball_rows(self, tmp_path):
        p = write_body(tmp_path / "lp.json", {"type": "lp", "p": 3.0, "axes": [1.0, 0.8, 1.2]})
        out = tmp_path / "sweep.csv"
        code = cli.run(["sweep", "--body", p, "--grid", "16x32", "--n", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "s,phi,psi,F,G,H"
        assert len(lines) == 1 + 8

    def test_theta0_once_per_angle_pair(self, tmp_path, monkeypatch):
        spec = {"type": "lp", "p": 3.0, "axes": [1.0, 0.8, 1.2]}
        p = write_body(tmp_path / "lp.json", spec)
        out = tmp_path / "sweep.csv"
        calls = []
        thetas = normalize._thetas

        def counted(K, mats, grid):
            calls.extend(mats)
            return thetas(K, mats, grid)

        monkeypatch.setattr(normalize, "_thetas", counted)
        code = cli.run(["sweep", "--body", p, "--grid", "16x32", "--n", "3", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert len(calls) == 9
        K, grid = make_body(spec), make_grid(16, 32)
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 27
        for s, phi, psi, *row in rows:
            want = fgh(K, BoxPoint(s, phi, psi), grid)
            assert np.array(row).tobytes() == want.tobytes()
