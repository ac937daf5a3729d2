"""CLI surface: exit codes, schema, determinism, CSV."""

import json
import struct

import pytest

from cliftonpohl import cli
from cliftonpohl.cli import main
from cliftonpohl.continuation import TraceSample, continue_path

RATIONAL = '{"alpha":[1,0],"beta":[0,0],"x":[1,0],"y":[0,0]}'
EXPONENTIAL = '{"alpha":[1,0],"beta":[2,0],"x":[1,0],"y":[2,0]}'
GENERIC = '{"alpha":[1,0],"beta":[2,0],"x":[1,0],"y":[1,0]}'


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_obstructed_shoot_is_3(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(
            ["shoot", "--germ", RATIONAL, "--path", "[[0,0],[2,0]]", "--out", str(out)]
        )
        assert code == 3
        rec = json.loads(out.read_text())
        assert rec["status"] == "Obstructed"
        assert abs(rec["obstruction"]["t_star"][0] - 1) < 1e-3

    def test_completed_detour_is_0(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(
            [
                "shoot",
                "--germ", RATIONAL,
                "--path", "[[0,0],[0.5,0.5],[2,0]]",
                "--out", str(out),
            ]
        )
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["status"] == "Completed"
        assert abs(rec["endpoint"]["u"][0] + 1) < 1e-6
        assert abs(rec["endpoint"]["u"][1]) < 1e-6

    def test_malformed_germ_is_2(self, capsys):
        assert run(["shoot", "--germ", "{bad json", "--path", "[[0,0],[1,0]]"]) == 2
        assert run(["shoot", "--germ", '{"alpha":[1,0]}', "--path", "[[0,0],[1,0]]"]) == 2

    def test_out_of_domain_germ_is_4(self):
        bad = '{"alpha":[1,0],"beta":[0,1],"x":[1,0],"y":[0,0]}'
        assert run(["shoot", "--germ", bad, "--path", "[[0,0],[1,0]]"]) == 4

    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["shoot", "--path", "[[0,0],[1,0]]"], ["probe", "--radius", "3"]],
        ids=["classify", "shoot", "probe"],
    )
    def test_huge_germ_is_refused_without_traceback(self, capsys, argv):
        # |u|^2 = 1e400 overflows a float: the germ is refused, by name,
        # before any command works with it
        germ = '{"alpha":[1e200,0],"beta":[1,0],"x":[1,0],"y":[1,0]}'
        assert run(argv[:1] + ["--germ", germ] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: u^2 + v^2 = (inf+0j)") and err.count("\n") == 1

    @pytest.mark.parametrize("speed", ["1e200", "1e-300"], ids=["fast", "slow"])
    def test_out_of_range_first_integral_is_refused_without_traceback(self, capsys, speed):
        # A = xy/(u^2 + v^2) is inf+nanj or 0j: refused by name, not by an
        # OverflowError or ZeroDivisionError
        germ = f'{{"alpha":[1,0],"beta":[2,0],"x":[{speed},0],"y":[{speed},0]}}'
        assert run(["classify", "--germ", germ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: A = xy/(u^2 + v^2) = ") and err.count("\n") == 1

    def test_out_of_range_discriminant_is_refused_without_traceback(self, capsys):
        # A and B are in range, the discriminant is not: the JSON writer
        # refused it with "Out of range float values are not JSON compliant"
        germ = '{"alpha":[1,0],"beta":[2,0],"x":[1e160,0],"y":[1e-160,0]}'
        assert run(["classify", "--germ", germ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: discriminant ") and err.count("\n") == 1

    def test_path_must_match_t0(self):
        assert run(["shoot", "--germ", RATIONAL, "--path", "[[0.5,0],[1,0]]"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["shoot", "--germ", RATIONAL, "--path", "[[0,0],[0,NaN]]"],
            ["shoot", "--germ", RATIONAL, "--path", "[[0,0],[true,false]]"],
            [
                "shoot",
                "--germ", '{"alpha":[true,false],"beta":[0,0],"x":[1,0],"y":[0,0]}',
                "--path", "[[0,0],[1,0]]",
            ],
            ["shoot", "--germ", "[1,0,1,0]", "--path", "[[0,0],[1,0]]"],
            [
                "shoot",
                "--germ", '{"alpha":[1,0],"beta":[0,0],"x":[0,0],"y":[0,0]}',
                "--path", "[[0,0],[1,0]]",
            ],
            ["shoot", "--germ", RATIONAL, "--path", '{"to":[1,0]}'],
            ["probe", "--germ", RATIONAL, "--radius", "nan"],
            ["probe", "--germ", RATIONAL, "--radius", "inf"],
        ],
        ids=[
            "nan-waypoint", "bool-waypoint", "bool-germ", "array-germ", "zero-velocity-germ",
            "object-path", "nan-radius", "inf-radius",
        ],
    )
    def test_bad_value_is_2_with_nothing_written(self, tmp_path, capsys, argv):
        out = tmp_path / "o.json"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["probe", "--germ", GENERIC, "--radius", "2"], "completeness_probe"),
            (["shoot", "--germ", GENERIC, "--path", "[[0,0],[1,0]]", "--csv"], "continue_path"),
            (["classify", "--germ", GENERIC], "classify"),
        ],
        ids=["probe", "shoot", "classify"],
    )
    def test_missing_out_dir_is_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, work
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, work, no_work)
        missing = tmp_path / "missing"
        assert run(argv + ["--out", str(missing / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not missing.exists()

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        # the directory exists, but the output path names a directory
        assert run(["classify", "--germ", GENERIC, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestParser:
    def test_built_once(self, tmp_path, capsys):
        # the parser is built once per process; a call that fails to
        # parse leaves it as it was for the next call
        ap = cli._parser()
        assert cli._parser() is ap
        assert run(["shoot", "--germ", RATIONAL]) == 2
        assert run(["probe", "--germ", RATIONAL, "--radius", "3", "--rays", "x"]) == 2
        out = tmp_path / "c.json"
        assert run(["classify", "--germ", GENERIC, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tag"] == "Generic"
        assert cli._parser() is ap


class TestClassifyCommand:
    def test_null(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["classify", "--germ", RATIONAL, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["tag"] == "NullVConst"
        assert rec["A"] is None and rec["discriminant"] is None

    def test_on_axis_germ_has_null_discriminant(self, tmp_path):
        # the germ sits on the axis u = 0, where cosh(log(alpha/beta)) is
        # infinite: Generic, with its first integrals and no discriminant,
        # however slowly u' = 1e-40 moves it off
        out = tmp_path / "c.json"
        germ = '{"alpha":[0,0],"beta":[1,0],"x":[1e-40,0],"y":[1,0]}'
        assert run(["classify", "--germ", germ, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["tag"] == "Generic" and rec["discriminant"] is None
        assert rec["A"] == [1e-40, 0.0] and rec["B"] == [1.0, 0.0]

    def test_exponential_discriminant_2(self, tmp_path):
        out = tmp_path / "c.json"
        run(["classify", "--germ", EXPONENTIAL, "--out", str(out)])
        rec = json.loads(out.read_text())
        assert rec["tag"] == "Exponential"
        assert abs(rec["discriminant"][0] - 2) < 1e-12

    def test_generic_discriminant(self, tmp_path):
        out = tmp_path / "c.json"
        run(["classify", "--germ", GENERIC, "--out", str(out)])
        rec = json.loads(out.read_text())
        assert rec["tag"] == "Generic"
        assert abs(rec["discriminant"][0] - 2.25) < 1e-12
        assert abs(rec["A"][0] - 0.2) < 1e-15
        assert abs(rec["B"][0] - 3) < 1e-15


class TestProbeCommand:
    def test_rational_probe(self, tmp_path):
        out = tmp_path / "p.json"
        code = run(
            [
                "probe",
                "--germ", RATIONAL,
                "--radius", "3",
                "--rays", "16",
                "--out", str(out),
            ]
        )
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["rays"] == 16
        assert len(rec["obstructions"]) == 1
        assert abs(rec["obstructions"][0][0] - 1) < 1e-4
        assert rec["min_separation"] == 0
        assert len(rec["per_ray"]) == 16

    def test_bad_rays(self):
        assert run(["probe", "--germ", RATIONAL, "--radius", "3", "--rays", "2"]) == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["shoot", "--germ", GENERIC, "--path", "[[0,0],[0.4,0.3]]"]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_fields(self, tmp_path):
        out = tmp_path / "t.json"
        run(
            [
                "shoot",
                "--germ", GENERIC,
                "--path", "[[0,0],[0.4,0]]",
                "--tol", "1e-9",
                "--out", str(out),
            ]
        )
        man = json.loads(out.read_text())["manifest"]
        assert man["command"] == "shoot"
        assert man["germ"]["alpha"] == [1, 0]
        assert man["tolerances"]["tol"] == 1e-9
        assert man["tool_version"]

    def test_floats_round_trip_exactly(self, tmp_path):
        # every number of the trace reads back as the same double, in the
        # JSON and in the CSV, the sign of zero included
        germ = '{"alpha":[1,-0.0],"beta":[2,0],"x":[1,-0.0],"y":[1,0]}'
        path = "[[0,0],[0.4,-0.0]]"
        out = tmp_path / "t.json"
        assert run(["shoot", "--germ", germ, "--path", path, "--out", str(out), "--csv"]) == 0
        trace = continue_path(cli.parse_germ(germ), cli.parse_path(path), cli.DEFAULT_TOL)
        want = [
            struct.pack("<d", c)
            for s in trace.samples
            for z in (s.t, s.u, s.v, s.du, s.dv)
            for c in (z.real, z.imag)
        ]
        assert struct.pack("<d", -0.0) in want
        rec = json.loads(out.read_text())
        from_json = [
            struct.pack("<d", c)
            for s in rec["samples"]
            for key in ("t", "u", "v", "du", "dv")
            for c in s[key]
        ]
        rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
        from_csv = [struct.pack("<d", float(c)) for row in rows for c in row.split(",")]
        assert from_json == want
        assert from_csv == want
        # a float stays a float: 1.0 is not read back as the integer 1
        assert all(isinstance(c, float) for c in rec["samples"][0]["u"])

    def test_non_finite_sample_is_2_with_nothing_written(self, tmp_path, capsys, monkeypatch):
        # the JSON is serialized, and refuses NaN, before either file is written
        def nan_trace(g, path, tol):
            trace = continue_path(g, path, tol)
            s = trace.samples[-1]
            trace.samples.append(TraceSample(s.t, complex(float("nan"), 0), s.v, s.du, s.dv))
            return trace

        monkeypatch.setattr(cli, "continue_path", nan_trace)
        argv = ["shoot", "--germ", GENERIC, "--path", "[[0,0],[0.4,0]]"]
        assert run(argv + ["--out", str(tmp_path / "t.json"), "--csv"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestSerialization:
    @pytest.mark.parametrize("germ, path", [
        (RATIONAL, "[[0,0],[2,0]]"),
        (RATIONAL, "[[0,0],[0.5,0.5],[2,0]]"),
        (GENERIC, "[[0,0],[2,1],[3,-1]]"),
        ('{"alpha":[1,-0.0],"beta":[2,0],"x":[1,-0.0],"y":[1,0]}', "[[0,0],[0.4,-0.0]]"),
    ])
    def test_files_equal_the_encoders_serialization(self, tmp_path, germ, path):
        # the samples are joined from strings formatted once; both files
        # read as json.dumps of the trace record and %r of each float
        out = tmp_path / "t.json"
        code = run(["shoot", "--germ", germ, "--path", path, "--out", str(out), "--csv"])
        g, p = cli.parse_germ(germ), cli.parse_path(path)
        trace = continue_path(g, p, cli.DEFAULT_TOL)
        assert code == (0 if trace.completed else 3)

        def pair(z):
            return [z.real, z.imag]

        def record(s):
            return {k: pair(getattr(s, k)) for k in ("t", "u", "v", "du", "dv")}

        ob = trace.obstruction
        rec = {
            "manifest": cli._manifest(
                "shoot", g, {"path": list(p.waypoints)}, {"tol": cli.DEFAULT_TOL}),
            "status": trace.status,
            "samples": [record(s) for s in trace.samples],
            "endpoint": record(trace.endpoint) if trace.completed else None,
            "obstruction": {"t_star": ob.t_star, "radius": ob.radius} if ob else None,
        }
        want = json.dumps(rec, default=pair, separators=(",", ":"), allow_nan=False)
        assert out.read_text() == want + "\n"
        rows = ["t_re,t_im,u_re,u_im,v_re,v_im,du_re,du_im,dv_re,dv_im"] + [
            ",".join("%r" % c for k in ("t", "u", "v", "du", "dv")
                     for c in pair(getattr(s, k)))
            for s in trace.samples
        ]
        assert (tmp_path / "t.csv").read_text() == "\n".join(rows) + "\n"


class TestCsv:
    def test_columns_and_rows(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(
            [
                "shoot",
                "--germ", RATIONAL,
                "--path", "[[0,0],[0.5,0]]",
                "--out", str(out),
                "--csv",
            ]
        )
        assert code == 0
        csv = (tmp_path / "t.csv").read_text().splitlines()
        assert csv[0] == "t_re,t_im,u_re,u_im,v_re,v_im,du_re,du_im,dv_re,dv_im"
        first = [float(x) for x in csv[1].split(",")]
        assert first == [0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
        last = [float(x) for x in csv[-1].split(",")]
        assert abs(last[0] - 0.5) < 1e-12
        assert abs(last[2] - 2) < 1e-8

    def test_csv_needs_out(self, capsys):
        assert (
            run(["shoot", "--germ", RATIONAL, "--path", "[[0,0],[0.5,0]]", "--csv"])
            == 2
        )
        assert capsys.readouterr().out == ""

    def test_csv_out_must_not_end_in_csv(self, tmp_path, capsys, monkeypatch):
        # the CSV goes to --out with its suffix replaced by .csv, which
        # would overwrite the trace; refused before any work
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "continue_path", no_work)
        out = tmp_path / "t.csv"
        argv = ["shoot", "--germ", RATIONAL, "--path", "[[0,0],[0.5,0]]", "--out", str(out)]
        assert run(argv + ["--csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert not out.exists()


    @pytest.mark.parametrize("blocked", ["t.json", "t.csv"])
    def test_failed_write_leaves_no_output(self, tmp_path, capsys, blocked):
        # a directory in the way of either file: exit code 2, and
        # neither the trace nor the CSV is left behind
        (tmp_path / blocked).mkdir()
        argv = ["shoot", "--germ", RATIONAL, "--path", "[[0,0],[0.5,0]]"]
        assert run(argv + ["--out", str(tmp_path / "t.json"), "--csv"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == []

class TestGermFiles:
    def test_germ_from_file(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(GENERIC)
        out = tmp_path / "c.json"
        assert run(["classify", "--germ", str(f), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tag"] == "Generic"

    def test_missing_file_is_2(self):
        assert run(["classify", "--germ", "/nonexistent/g.json"]) == 2


class TestVerifyCommand:
    def test_single_fast_criterion(self, capsys):
        assert run(["verify", "--criteria", "9"]) == 0
        out = capsys.readouterr().out
        assert "criterion 9" in out and "PASS" in out

    def test_bad_criteria_arg(self, capsys):
        assert run(["verify", "--criteria", "abc"]) == 2
        assert run(["verify", "--criteria", "99"]) == 2
        # an unknown number is refused before any criterion runs
        assert run(["verify", "--criteria", "9,99"]) == 2
        assert capsys.readouterr().out == ""
