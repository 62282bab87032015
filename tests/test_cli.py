import collections
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from motionfactor import cli, dualquat, factorization, linkage, synthesis
from motionfactor.cli import build_parser, main
from motionfactor.dualquat import DualQuaternion
from motionfactor.factorization import Factorization
from motionfactor.polyring import RealPoly
from motionfactor.linkage import import_linkage

from conftest import general_position_poses, random_generic_motion


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def ellipse_file(tmp_path, a=2.0, b=1.0):
    return write_json(tmp_path / "c.json", {
        "coeffs": [[1, 0, 0, 0, 0, a, 0, 0], [0, 0, 0, 0, 0, 0, b, 0], [1, 0, 0, 0, 0, 0, 0, 0]],
    })


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_ellipse(self, tmp_path, capsys):
        code, out = run(capsys, ["validate", ellipse_file(tmp_path)])
        report = json.loads(out)
        assert code == 0
        assert report["valid"] and report["bounded"] and not report["generic"]
        assert np.allclose(report["primal_real_factor"], [1.0, 0.0, 1.0], atol=1e-8)

    def test_unbounded_translation(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", {
            "coeffs": [[0, 0, 0, 0, 0, -1, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]],
        })
        code, out = run(capsys, ["validate", path])
        report = json.loads(out)
        assert code == 0
        assert report["valid"] and not report["bounded"]

    def test_invalid_motion_exits_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {
            "coeffs": [[0, 0, 0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]],
        })
        code, out = run(capsys, ["validate", path])
        assert code == 1
        assert json.loads(out)["error"] == "NonRealNorm"

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SystemExit) as err:
            main(["validate", str(path)])
        assert err.value.code == 2


class TestFactor:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("slot", [(0, 6), (1, 0)])
    def test_non_finite_coefficient_exits_two(self, tmp_path, capsys, bad, slot):
        coeffs = [[0, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]]
        coeffs[slot[0]][slot[1]] = bad
        path = write_json(tmp_path / "nan.json", {"coeffs": coeffs})
        with pytest.raises(SystemExit) as err:
            main(["factor", path, "--all"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "malformed polynomial file" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_generic_quadratic_all(self, tmp_path, capsys, rng):
        c, _ = random_generic_motion(rng, 2)
        path = write_json(tmp_path / "c.json", c.poly.to_json())
        code, out = run(capsys, ["factor", str(path), "--all"])
        report = json.loads(out)
        assert code == 0
        assert len(report["factorizations"]) == 2
        for fd in report["factorizations"]:
            f = Factorization(
                tuple(DualQuaternion.from_array(row) for row in fd["factors"]),
                RealPoly.of(fd["multiplier"]),
            )
            assert f.residual_against(c.poly) < 1e-8

    def test_all_prints_one_compact_line(self, tmp_path, capsys, rng):
        c, _ = random_generic_motion(rng, 3)
        path = write_json(tmp_path / "c.json", c.poly.to_json())
        code, out = run(capsys, ["factor", str(path), "--all"])
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        assert set(json.loads(out)) == {"status", "multiplier", "factorizations", "diagnostics"}

    def test_all_classifies_every_factor_in_one_pass(self, tmp_path, capsys, monkeypatch, rng):
        # the factors stay coefficient rows from the walk to the JSON: one
        # generator_kinds call for all of them, and no DualQuaternion built
        # after the input file is read (DQPoly holds its coefficients as ones)
        c, _ = random_generic_motion(rng, 5)
        path = write_json(tmp_path / "c.json", c.poly.to_json())
        counts = collections.Counter()
        reading = cli._read_dqpoly.__code__

        def counting(name, fn):
            def spy(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return spy

        for module in (dualquat, factorization, synthesis, linkage):
            for name in ("classify_generator", "generator_kinds"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        init = DualQuaternion.__init__

        def counting_init(self, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not reading:
                frame = frame.f_back
            counts["DualQuaternion read" if frame else "DualQuaternion"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(DualQuaternion, "__init__", counting_init)
        code, out = run(capsys, ["factor", path, "--all"])
        assert code == 0 and len(json.loads(out)["factorizations"]) == 120
        assert counts["classify_generator"] == 0
        assert counts["generator_kinds"] == 1
        assert counts["DualQuaternion"] == 0
        assert counts["DualQuaternion read"] == len(c.poly.coeffs), "the spy missed the input"

    def test_ellipse_needs_multiplier(self, tmp_path, capsys):
        code, out = run(capsys, ["factor", ellipse_file(tmp_path)])
        assert code == 1
        assert json.loads(out)["status"] == "no_factorization"

    def test_ellipse_with_multiplier(self, tmp_path, capsys):
        code, out = run(capsys, ["factor", ellipse_file(tmp_path), "--multiplier-deg", "2"])
        report = json.loads(out)
        assert code == 0
        assert report["status"] == "success"
        assert len(report["multiplier"]) <= 3
        assert len(report["factorizations"][0]["factors"]) == 4
        assert set(report["factorizations"][0]["kinds"]) == {"rotation"}

    def test_right_h(self, tmp_path, capsys):
        hpath = write_json(tmp_path / "h.json", {
            "coeffs": [[0, 0, 0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]],
        })
        code, out = run(capsys, ["factor", ellipse_file(tmp_path), "--right-H", hpath])
        report = json.loads(out)
        assert code == 0
        assert report["status"] == "success"
        assert len(report["factorizations"][0]["factors"]) == 3

    @pytest.mark.parametrize("coeffs, error", [
        ([[0, 0, 0, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0, 0]], "NotMonic"),
        ([[0, 0, 0, -1, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]], "NotQuaternionPolynomial"),
    ])
    def test_bad_right_h_is_typed(self, tmp_path, capsys, coeffs, error):
        hpath = write_json(tmp_path / "h.json", {"coeffs": coeffs})
        code = main(["factor", ellipse_file(tmp_path), "--right-H", hpath])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"] == error
        assert "Traceback" not in captured.err + captured.out


REAL_FACTOR_CUBIC = {"coeffs": [[-2, 0, 0, -2, 0, 0, 0, 0], [5, 0, 0, 3, 0, 0, 0, 0],
                                 [-4, 0, 0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]]}


class TestErrorBoundary:
    """A MotionFactorError raised anywhere in a command exits 1 with the command's JSON error."""

    @pytest.mark.parametrize("flags", [[], ["--all"]])
    def test_real_linear_factor_is_typed(self, tmp_path, capsys, flags):
        # (t - 1)(t - 2)(t - 1 - k): the report's kinds reject the real factor t - 1
        path = write_json(tmp_path / "c.json", REAL_FACTOR_CUBIC)
        code, out = run(capsys, ["factor", path, *flags])
        assert code == 1
        assert json.loads(out) == {"status": "error", "error": "NotLinearMotion",
                                   "detail": "h is a real constant, t - h moves nothing"}

    @pytest.mark.parametrize("name", ["max_real_factor", "is_bounded"])
    def test_validate_checks_after_validation_are_typed(self, tmp_path, capsys, monkeypatch, name):
        from motionfactor.errors import NotNonnegative

        def failing(*args, **kwargs):
            raise NotNonnegative("norm polynomial takes negative values")

        monkeypatch.setattr(cli, name, failing)
        code, out = run(capsys, ["validate", ellipse_file(tmp_path)])
        assert code == 1
        assert json.loads(out) == {"valid": False, "error": "NotNonnegative",
                                   "detail": "norm polynomial takes negative values"}

    def test_failed_export_writes_no_file(self, tmp_path, capsys):
        # the README ellipse rotated 60 degrees about x: a spatial linkage, so no drawing
        path = write_json(tmp_path / "tilted.json", {
            "v": [[-4.0], [0.0, -1.0], [0.0, -1.7320508075688772]], "w": [1.0, 0.0, 1.0]})
        out_dir = tmp_path / "out"
        argv = ["--out", str(out_dir), "curve", path, "--export", "json", "--export", "svg"]
        code, out = run(capsys, argv)
        assert code == 1
        assert json.loads(out)["error"] == "NotPlanar"
        assert not out_dir.exists() or os.listdir(out_dir) == []
        code, out = run(capsys, ["--out", str(out_dir), "curve", path])
        assert code == 0 and os.listdir(out_dir) == ["linkage.json"]


class TestSynth3:
    def test_three_random_poses(self, tmp_path, capsys, rng):
        poses = general_position_poses(rng)
        path = write_json(tmp_path / "p.json", [list(p.as_array()) for p in poses])
        code, out = run(capsys, ["synth3", str(path)])
        report = json.loads(out)
        assert code == 0
        linkage = import_linkage(report["linkage"])
        assert len(linkage.graph.links) == 4

    def test_identical_poses_fail(self, tmp_path, capsys, rng):
        pose = list(general_position_poses(rng)[0].as_array())
        path = write_json(tmp_path / "p.json", [pose, pose, pose])
        code, out = run(capsys, ["synth3", str(path)])
        assert code == 1
        assert json.loads(out)["error"] == "DegeneratePoses"

    def test_off_quadric_pose_fails(self, tmp_path, capsys, rng):
        poses = [list(p.as_array()) for p in general_position_poses(rng)]
        poses[1][4] += 0.5  # scalar dual component breaks the Study condition
        path = write_json(tmp_path / "p.json", poses)
        code, out = run(capsys, ["synth3", str(path)])
        assert code == 1
        assert json.loads(out)["error"] == "NotOnStudyQuadric"

    @pytest.mark.parametrize("row", [[float("nan")] + [0.0] * 7, [1.0] * 7])
    def test_malformed_pose_exits_two(self, tmp_path, capsys, rng, row):
        poses = [list(p.as_array()) for p in general_position_poses(rng)]
        poses[2] = row
        path = write_json(tmp_path / "p.json", poses)
        assert main(["synth3", str(path)]) == 2
        assert "malformed poses file" in capsys.readouterr().err


class TestCurve:
    def test_ellipse_pipeline(self, tmp_path, capsys):
        path = write_json(tmp_path / "curve.json", {
            "v": [[-4.0], [0.0, -2.0], [0.0]],
            "w": [1.0, 0.0, 1.0],
        })
        out_dir = tmp_path / "out"
        code, out = run(capsys, [
            "--out", str(out_dir), "curve", str(path),
            "--export", "json", "--export", "svg", "--export", "csv",
        ])
        report = json.loads(out)
        assert code == 0
        assert report["joint_count"] == 13
        for f in report["files"]:
            assert os.path.exists(f)
        linkage = import_linkage(json.loads((out_dir / "linkage.json").read_text()))
        assert linkage.tracer is not None

    def test_curve_classifies_no_generator_one_by_one(self, tmp_path, capsys, monkeypatch):
        # the joints are classified as rows: one generator_axes call per
        # assembled linkage, none of classify_generator on the whole path
        import motionfactor

        path = write_json(tmp_path / "curve.json", {"v": [[-4.0], [0.0, -2.0], [0.0]], "w": [1.0, 0.0, 1.0]})
        counts = collections.Counter()
        for name in ("classify_generator", "generator_axes"):
            fn = getattr(dualquat, name)

            def spy(*args, _name=name, _fn=fn, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for module in (motionfactor, dualquat, factorization, synthesis, linkage, cli):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, spy)
        argv = ["--out", str(tmp_path / "out"), "curve", path, "--export", "svg", "--export", "json"]
        code, _ = run(capsys, argv)
        assert code == 0
        assert counts["classify_generator"] == 0
        assert counts["generator_axes"] == 1

    def test_parser_built_once_without_shared_export_list(self, tmp_path, capsys):
        # the parser is cached per process: an --export list of one call
        # must not become the default of the next call
        assert build_parser() is build_parser()
        path = write_json(tmp_path / "curve.json", {"v": [[-4.0], [0.0, -2.0], [0.0]], "w": [1.0, 0.0, 1.0]})
        first, second = tmp_path / "first", tmp_path / "second"
        code, _ = run(capsys, ["--out", str(first), "curve", path, "--export", "svg", "--export", "json"])
        assert code == 0 and sorted(os.listdir(first)) == ["linkage.json", "linkage.svg"]
        code, out = run(capsys, ["--out", str(second), "curve", path])
        assert code == 0 and os.listdir(second) == ["linkage.json"]
        assert json.loads(out)["files"] == [str(second / "linkage.json")]

    def test_non_finite_curve_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "curve.json", {
            "v": [[-4.0], [0.0, float("nan")], [0.0]],
            "w": [1.0, 0.0, 1.0],
        })
        assert main(["curve", str(path)]) == 2
        assert "malformed curve file" in capsys.readouterr().err

    def test_unbounded_curve_fails(self, tmp_path, capsys):
        path = write_json(tmp_path / "curve.json", {
            "v": [[1.0], [], []],
            "w": [-1.0, 0.0, 1.0],
        })
        code, out = run(capsys, ["curve", str(path)])
        assert code == 1
        assert json.loads(out)["error"] == "UnboundedCurve"

    def test_circle_reports_trivial_multiplier(self, tmp_path, capsys):
        path = write_json(tmp_path / "curve.json", {
            "v": [[-2.0], [0.0, -2.0], [0.0]],
            "w": [1.0, 0.0, 1.0],
        })
        code, out = run(capsys, ["--out", str(tmp_path / "o"), "curve", str(path)])
        report = json.loads(out)
        assert code == 0
        assert report["loop_count"] == 2
        assert any("multiplier [1.0]" in n for n in report["notes"])

    def test_config_file_via_environment(self, tmp_path, capsys, monkeypatch, rng):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backtrack_budget": 123, "seed": 5}))
        monkeypatch.setenv("MOTIONFACTOR_CONFIG", str(cfg))
        c, _ = random_generic_motion(rng, 2)
        path = write_json(tmp_path / "c.json", c.poly.to_json())
        code, _ = run(capsys, ["factor", str(path)])
        assert code == 0

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-1"], ["--budget", "0"]])
    def test_bad_configuration_exits_two(self, tmp_path, capsys, flags):
        path = write_json(tmp_path / "curve.json", {
            "v": [[-4.0], [0.0, -2.0], [0.0]],
            "w": [1.0, 0.0, 1.0],
        })
        with pytest.raises(SystemExit) as err:
            main(flags + ["--out", str(tmp_path / "o"), "curve", str(path), "--export", "svg"])
        assert err.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("data", [
        {"sample_count": 0}, {"tolerance": "small"}, [1], {"sample_count": 2.5},
        {"backtrack_budget": True}, {"family_samples": -1}, {"tolerence": 1e-9},
    ])
    def test_bad_configuration_file_exits_two(self, tmp_path, capsys, monkeypatch, rng, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        monkeypatch.setenv("MOTIONFACTOR_CONFIG", str(cfg))
        c, _ = random_generic_motion(rng, 2)
        path = write_json(tmp_path / "c.json", c.poly.to_json())
        with pytest.raises(SystemExit) as err:
            main(["factor", str(path)])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("v, w", [
        ([[1.0], [0.0], [0.0]], [0.0]),
        ([[0.0, 0.0, 0.0, 1.0], [0.0], [0.0]], [1.0, 0.0, 1.0]),
        ([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0], [0.0]], [2.0, 0.0, 3.0, 0.0, 1.0]),
        ([[1.0], [0.0], [0.0]], [1.0]),
    ], ids=["zero-denominator", "numerator-degree", "shared-factor", "constant"])
    def test_invalid_curve_is_typed(self, tmp_path, capsys, v, w):
        path = write_json(tmp_path / "curve.json", {"v": v, "w": w})
        code, out = run(capsys, ["--out", str(tmp_path / "o"), "curve", str(path)])
        assert code == 1
        assert json.loads(out)["error"] == "InvalidCurve"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_m0_exits_two(self, tmp_path, capsys, bad):
        path = write_json(tmp_path / "curve.json", {
            "v": [[-4.0], [0.0, -2.0], [0.0]],
            "w": [1.0, 0.0, 1.0],
        })
        argv = ["--out", str(tmp_path / "o"), "curve", str(path), "--m0", f"{bad},0,0,0,0,0,0,0"]
        assert main(argv) == 2
        assert "malformed --m0" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_json(tmp_path / "curve.json", {
            "v": [[-4.0], [0.0, -2.0], [0.0]],
            "w": [1.0, 0.0, 1.0],
        })
        outputs = []
        for i in range(2):
            out_dir = tmp_path / f"out{i}"
            code, out = run(capsys, ["--seed", "7", "--out", str(out_dir), "curve", str(path)])
            assert code == 0
            outputs.append((out_dir / "linkage.json").read_text())
        assert outputs[0] == outputs[1]


def test_import_leaves_scipy_optimize_unloaded():
    code = (
        "import sys\n"
        "import motionfactor.cli\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "from motionfactor import factorization\n"
        "import scipy.optimize\n"
        "assert factorization.least_squares is scipy.optimize.least_squares\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_curve_run_leaves_scipy_optimize_unloaded(tmp_path):
    # the exact planar path polishes nothing: the factor polish exits before
    # least_squares, so a curve call never pays for importing scipy.optimize
    path = write_json(tmp_path / "ellipse.json", {"v": [[-4.0], [0.0, -2.0], [0.0]], "w": [1.0, 0.0, 1.0]})
    code = (
        "import sys\n"
        "from motionfactor import cli\n"
        f"assert cli.main(['--out', {str(tmp_path / 'out')!r}, 'curve', {path!r}, '--export', 'svg']) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "linkage.svg").exists()
