"""End-to-end tests of the command-line interface (run as subprocesses)."""

import json
import logging
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from pnlevp.cli import main
from pnlevp.solver import FORMAT_VERSION

CLI = [sys.executable, "-c",
       "import sys; from pnlevp.cli import main; sys.exit(main())"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.fixture(scope="module")
def delay_model(tmp_path_factory):
    """Model file for the delay benchmark setup, built once via the CLI."""
    path = tmp_path_factory.mktemp("models") / "delay.model"
    proc = run_cli(
        "offline", "--problem", "delay", "--disk", "0,0,0.075",
        "--p", "30:35", "--q", "40", "--r", "20", "--N", "128",
        "--seed", "7", "--out", str(path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "m = 4" in proc.stderr
    return path


class TestOffline:
    def test_delay_setup_reports_m4(self, delay_model):
        # building the fixture already asserts exit 0 and the m = 4 report
        assert delay_model.exists()

    def test_invalid_radius_exits_2(self, tmp_path):
        proc = run_cli(
            "offline", "--problem", "delay", "--disk", "0,0,-1",
            "--p", "30:35", "--q", "4", "--r", "4", "--N", "16",
            "--out", str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_rank_mismatch_exits_2_listing_ranks(self, tmp_path):
        # sqrt(1-p) crosses the |z| = 0.6 boundary inside [0.44, 0.76]
        proc = run_cli(
            "offline", "--problem", "linear-demo", "--disk", "0,0,0.6",
            "--p", "0.44:0.76", "--q", "4", "--r", "8", "--N", "512",
            "--out", str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2
        assert "ranks" in proc.stderr
        assert not (tmp_path / "m.json").exists()

    def test_unknown_problem_exits_2(self, tmp_path):
        proc = run_cli(
            "offline", "--problem", "nope", "--disk", "0,0,1",
            "--p", "0:1", "--q", "4", "--r", "4", "--N", "16",
            "--out", str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2

    def test_eigenvalue_on_quadrature_node_exits_3(self, tmp_path):
        # at p = 0.75 the eigenvalue 0.5 sits on the node z = 0.5 of the
        # 8-node rule on |z| = 0.5
        proc = run_cli(
            "offline", "--problem", "linear-demo", "--disk", "0,0,0.5",
            "--p", "0.75:1.0", "--q", "4", "--r", "4", "--N", "8",
            "--out", str(tmp_path / "m.json"),
        )
        assert proc.returncode == 3
        assert "singular" in proc.stderr
        assert not (tmp_path / "m.json").exists()

    def test_non_finite_radius_exits_2(self, tmp_path):
        proc = run_cli(
            "offline", "--problem", "delay", "--disk", "0,0,nan",
            "--p", "30:35", "--q", "4", "--r", "4", "--N", "16",
            "--out", str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1e-12"),
        ("--rank-tol", "nan"), ("--rank-tol", "0"), ("--rank-tol", "1")])
    def test_bad_tolerance_exits_2_writing_nothing(self, tmp_path, capsys,
                                                   flag, value):
        assert main(["offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.6", "--p", "0.75:1.25", "--q", "4",
                     "--r", "4", "--N", "16", f"{flag}={value}",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "1"])
    def test_bad_inflation_exits_2_writing_nothing(self, tmp_path, capsys,
                                                   value):
        assert main(["offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.6", "--p", "0.75:1.25", "--q", "4",
                     "--r", "4", "--N", "16", f"--inflation={value}",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert (f"inflation factor {float(value)} must be a finite number "
                "exceeding 1" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("p_range, bound", [
        ("30:inf", "inf"), ("-inf:0", "-inf"), ("nan:35", "nan")])
    def test_non_finite_range_exits_2_writing_nothing(self, tmp_path, capsys,
                                                      p_range, bound):
        assert main(["offline", "--problem", "delay", "--disk", "0,0,0.075",
                     f"--p={p_range}", "--q", "8", "--r", "3", "--N", "128",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert (f"parameter range bound {bound} is not finite"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_identical_config_and_seed_byte_identical_models(self, tmp_path):
        args = ("offline", "--problem", "linear-demo", "--disk", "0,0,0.6",
                "--p", "0.75:1.25", "--q", "8", "--r", "6", "--N", "128",
                "--seed", "3")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("verbose", [True, False])
    def test_verbose_flag_prints_rank_check_record(self, tmp_path, verbose):
        proc = run_cli(
            *(["-v"] if verbose else []),
            "offline", "--problem", "linear-demo", "--disk", "0,0,0.6",
            "--p", "0.75:1.25", "--q", "4", "--r", "8", "--N", "128",
            "--out", str(tmp_path / "m.json"),
        )
        assert proc.returncode == 0, proc.stderr
        assert ("rank check: ranks [2, 2, 2, 2]" in proc.stderr) == verbose
        assert "rank gap = " in proc.stderr
        assert "online directions: 8 of 8" in proc.stderr

    @pytest.mark.filterwarnings("ignore:barycentric fit did not reach")
    def test_verbose_leaves_logger_as_it_was(self, tmp_path, capsys):
        log = logging.getLogger("pnlevp")
        before = (list(log.handlers), log.level)
        assert main(["-v", "offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.6", "--p", "0.75:1.25", "--q", "4",
                     "--r", "8", "--N", "128",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert "rank check: ranks" in capsys.readouterr().err
        assert (log.handlers, log.level) == before


class TestOnline:
    def test_four_eigenvalue_lines(self, delay_model):
        proc = run_cli("online", "--model", str(delay_model), "--p", "30")
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines()[1:] if l.strip()]
        assert len(rows) == 4

    def test_extrapolation_warning_on_stderr(self, delay_model):
        proc = run_cli("online", "--model", str(delay_model), "--p", "50")
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines()[1:] if l.strip()]
        assert len(rows) == 4
        assert "outside the sampled range" in proc.stderr

    def test_json_output_parses(self, delay_model):
        proc = run_cli("online", "--model", str(delay_model), "--p", "32",
                       "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["eigenvalues"]) == 4
        assert all(flag for flag in doc["in_domain"])
        assert max(doc["residuals"]) <= 1e-6

    def test_json_reports_rank_diagnostics(self, delay_model):
        proc = run_cli("online", "--model", str(delay_model), "--p", "32.5",
                       "--json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["rank_gap"] > 1e8
        assert doc["discarded_infinite"] == 0

    def test_json_reports_min_denominator(self, delay_model):
        proc = run_cli("online", "--model", str(delay_model), "--p", "32.5",
                       "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["min_denominator"] > 0.0

    def test_missing_model_exits_1(self, tmp_path):
        proc = run_cli("online", "--model", str(tmp_path / "absent.json"),
                       "--p", "30")
        assert proc.returncode == 1

    def test_malformed_model_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                    "m": 2}))
        proc = run_cli("online", "--model", str(path), "--p", "1")
        assert proc.returncode == 1
        assert "malformed model file" in proc.stderr

    def test_version_1_model_exits_1(self, delay_model, tmp_path):
        # a version-1 file holds lifts, not the exact samples at the p-nodes
        doc = json.loads(delay_model.read_text())
        doc["format_version"] = 1
        path = tmp_path / "v1.model"
        path.write_text(json.dumps(doc))
        proc = run_cli("online", "--model", str(path), "--p", "32")
        assert proc.returncode == 1
        assert "unsupported model format version 1" in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_model_value_exits_1(self, delay_model, tmp_path,
                                            value):
        # json writes NaN and Infinity literals, which it also reads
        doc = json.loads(delay_model.read_text())
        doc["left_vals"][0][0][0][0] = float(value)
        path = tmp_path / "non-finite.model"
        path.write_text(json.dumps(doc))
        proc = run_cli("online", "--model", str(path), "--p", "32")
        assert proc.returncode == 1
        assert "model arrays must hold finite numbers" in proc.stderr

    @pytest.mark.parametrize("field, value, message", [
        ("m", -1, "model order m = -1 is not an integer in [0, 20]"),
        ("m", 21, "model order m = 21 is not an integer in [0, 20]"),
        ("m", "4", "model order m = '4' is not an integer"),
        ("m", 4.5, "model order m = 4.5 is not an integer"),
        ("m", True, "model order m = True is not an integer"),
        ("metadata", [], "model metadata must be a JSON object"),
        ("rank_tol", "x", "rank_tol must be a finite number in (0, 1)"),
        ("rank_tol", float("nan"), "rank_tol must be a finite number"),
        ("rank_tol", 1.0, "rank_tol must be a finite number in (0, 1)"),
    ])
    def test_malformed_model_field_exits_1(self, delay_model, tmp_path,
                                           capsys, field, value, message):
        doc = json.loads(delay_model.read_text())
        if field == "rank_tol":
            doc["metadata"][field] = value
        else:
            doc[field] = value
        path = tmp_path / "field.model"
        path.write_text(json.dumps(doc))
        assert main(["online", "--model", str(path), "--p", "32"]) == 1
        out, err = capsys.readouterr()
        assert message in err and out == ""

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: d["sampling"]["left_dirs"].pop(),
                     "need r left and r right probing directions",
                     id="left-dirs-row"),
        pytest.param(lambda d: d["left_vals"].pop(),
                     "left_vals and right_vals differ in shape",
                     id="left-vals-direction"),
        # the delay model has n = 10
        pytest.param(lambda d: [row.pop()
                                for row in d["sampling"]["left_dirs"]],
                     "left and right probing directions differ in shape: "
                     "(20, 9) and (20, 10)", id="left-dirs-component"),
        pytest.param(lambda d: [row.pop()
                                for row in d["sampling"]["right_dirs"]],
                     "left and right probing directions differ in shape: "
                     "(20, 10) and (20, 9)", id="right-dirs-component"),
        pytest.param(lambda d: [row.pop()
                                for key in ("left_vals", "right_vals")
                                for rows in d[key] for row in rows],
                     "sample vectors of length 9 do not fit probing "
                     "directions of length 10", id="vals-component"),
        # the delay model has 5 z-nodes and 6 p-nodes
        pytest.param(lambda d: d["scalar_nodes"]["p"].pop(),
                     "coeffs of shape (5, 6) do not fit the node grid (5, 5)",
                     id="p-node"),
        pytest.param(lambda d: d["scalar_nodes"]["z"].pop(),
                     "coeffs of shape (5, 6) do not fit the node grid (4, 6)",
                     id="z-node"),
        pytest.param(lambda d: d.update(alpha=d["alpha"][0]),
                     "coeffs of shape (6,) do not fit the node grid (5, 6)",
                     id="1-d-alpha"),
        pytest.param(lambda d: d["alpha"].pop(),
                     "coeffs of shape (4, 6) do not fit the node grid (5, 6)",
                     id="alpha-row"),
        pytest.param(lambda d: d["scalar_values"].pop(),
                     "node_values of shape (4, 6) do not fit the node grid "
                     "(5, 6)", id="scalar-values-row"),
        pytest.param(lambda d: [row.pop() for row in d["scalar_values"]],
                     "node_values of shape (5, 5) do not fit the node grid "
                     "(5, 6)", id="scalar-values-column"),
        pytest.param(lambda d: d["domain"].update(radius=-0.075),
                     "ellipse semi-axes must be positive",
                     id="negative-radius"),
        pytest.param(lambda d: d["sampling"]["sample_points"].pop(),
                     "need an even, positive number of sample points",
                     id="odd-sample-points"),
        pytest.param(lambda d: d["sampling"]["sample_points"].__setitem__(
                         1, d["sampling"]["sample_points"][0]),
                     "left and right sample points must be pairwise distinct",
                     id="theta-is-sigma"),
        pytest.param(lambda d: d.update(scalar_fit=[]),
                     "scalar_fit must be a JSON object", id="list-scalar-fit"),
        pytest.param(lambda d: d["sampling"].update(seed="7"),
                     "sampling seed '7' is not an int >= 0",
                     id="string-seed"),
        pytest.param(lambda d: d["sampling"].update(seed=-1),
                     "sampling seed -1 is not an int >= 0",
                     id="negative-seed"),
    ])
    def test_inconsistent_model_exits_1(self, delay_model, tmp_path, capsys,
                                        edit, message):
        doc = json.loads(delay_model.read_text())
        edit(doc)
        path = tmp_path / "inconsistent.model"
        path.write_text(json.dumps(doc))
        assert main(["online", "--model", str(path), "--p", "32"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err and out == ""
        assert "matmul" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "2"])
    def test_bad_rank_tol_exits_2_writing_nothing(self, delay_model, tmp_path,
                                                  capsys, value):
        assert main(["online", "--model", str(delay_model), "--p", "32",
                     f"--rank-tol={value}",
                     "--out", str(tmp_path / "out.txt")]) == 2
        assert ("rank_tol must be a finite number in (0, 1)"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_parameter_exits_2(self, delay_model, p):
        proc = run_cli("online", "--model", str(delay_model), "--p", p)
        assert proc.returncode == 2
        assert "is not finite" in proc.stderr


class TestSweep:
    def test_single_row_file(self, delay_model, tmp_path):
        out = tmp_path / "sweep.dat"
        proc = run_cli("sweep", "--model", str(delay_model), "--p", "30:35",
                       "--n-test", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert f"output written to {out}" in proc.stderr
        data = np.loadtxt(out, ndmin=2)
        assert data.shape == (1, 1 + 2 * 4 + 1)

    def test_repeated_sweeps_write_identical_bytes(self, delay_model,
                                                   tmp_path):
        outs = []
        for name in ("a.dat", "b.dat", "c.dat"):
            out = tmp_path / name
            proc = run_cli(
                "sweep", "--model", str(delay_model), "--p", "30:35",
                "--n-test", "20", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_stdout_table(self, delay_model):
        proc = run_cli("sweep", "--model", str(delay_model), "--p", "31:32",
                       "--n-test", "3")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 4

    def test_invalid_range_exits_2(self, delay_model):
        proc = run_cli("sweep", "--model", str(delay_model), "--p", "35:30",
                       "--n-test", "3")
        assert proc.returncode == 2

    @pytest.mark.parametrize("p_range, bound", [
        ("30:inf", "inf"), ("-inf:0", "-inf"), ("nan:35", "nan")])
    def test_non_finite_range_exits_2_writing_nothing(self, delay_model,
                                                      tmp_path, capsys,
                                                      p_range, bound):
        assert main(["sweep", "--model", str(delay_model), f"--p={p_range}",
                     "--out", str(tmp_path / "sweep.dat")]) == 2
        err = capsys.readouterr().err
        assert f"parameter range bound {bound} is not finite" in err
        assert "nan+" not in err
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_unknown_name_exits_2_listing(self):
        proc = run_cli("bench", "no-such-benchmark")
        assert proc.returncode == 2
        assert "linear-1" in proc.stderr
        assert "damped-string-2" in proc.stderr

    def test_list_when_omitted(self):
        proc = run_cli("bench")
        assert proc.returncode == 0
        assert "delay" in proc.stderr


class TestOutputFiles:
    @pytest.mark.parametrize("command", [
        ("online", "--p", "31"),
        ("online", "--p", "31", "--json"),
        ("sweep", "--p", "30:35", "--n-test", "2"),
        ("sweep", "--p", "30:35", "--n-test", "2", "--json"),
    ])
    def test_fifo_out_refused(self, delay_model, tmp_path, command):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        proc = run_cli(command[0], "--model", str(delay_model),
                       *command[1:], "--out", str(fifo))
        assert proc.returncode == 1
        assert "not a regular file" in proc.stderr
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_neighbouring_tmp_file_kept(self, delay_model, tmp_path):
        out = tmp_path / "sweep.dat"
        mine = tmp_path / "sweep.dat.tmp"
        mine.write_text("not the program's\n")
        proc = run_cli("sweep", "--model", str(delay_model), "--p", "30:35",
                       "--n-test", "2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert mine.read_text() == "not the program's\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sweep.dat", "sweep.dat.tmp"]
        assert np.loadtxt(out, ndmin=2).shape == (2, 1 + 2 * 4 + 1)
