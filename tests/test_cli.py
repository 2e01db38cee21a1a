"""End-to-end tests of the command-line interface.

Each test calls cli.main(argv) in-process and reads its exit code and
output; two start an interpreter, to see a warning reach the error stream
and the exit code reach the shell."""

import base64
import contextlib
import io
import json
import logging
import os
import stat
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pnlevp import benchmarks as bench_mod
from pnlevp.cli import main
from pnlevp.contour import Disk, default_sampling
from pnlevp.errors import ModelFormatError
from pnlevp.problems import SyntheticRationalProblem
from pnlevp.solver import (FORMAT_VERSION, EigenSolution, load_model,
                           offline, online, save_model)


def decode_array(node):
    """A writeable copy of the array a model file stores as
    {"shape": [...], "c16": base64 of its little-endian complex128 bytes}."""
    a = np.frombuffer(base64.b64decode(node["c16"]), dtype="<c16")
    return a.reshape(node["shape"]).copy()


def edit_array(doc, *keys, edit):
    """Replace the array stored at doc[keys[0]][keys[1]]... with
    edit(array): decode, edit, encode."""
    *outer, key = keys
    for k in outer:
        doc = doc[k]
    a = np.asarray(edit(decode_array(doc[key])), dtype="<c16")
    doc[key] = {"shape": list(a.shape),
                "c16": base64.b64encode(a.tobytes()).decode("ascii")}


def refuse(name):
    """parse_constant for json.loads: NaN and Infinity are not JSON."""
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def delay_model(tmp_path_factory):
    """Model file for the delay benchmark setup, built once via the CLI."""
    path = tmp_path_factory.mktemp("models") / "delay.model"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        # seed 7 misses the default fit tol (tangential error 6.94e-12)
        warnings.filterwarnings("ignore", "barycentric fit did not reach")
        code = main(["offline", "--problem", "delay", "--disk", "0,0,0.075",
                     "--p", "30:35", "--q", "40", "--r", "20", "--N", "128",
                     "--seed", "7", "--out", str(path)])
    assert code == 0, err.getvalue()
    assert "m = 4" in err.getvalue()
    return path


def _theta_is_sigma(points):
    """Sample points whose first sigma equals the first theta."""
    points[1] = points[0]
    return points


class TestOffline:
    def test_delay_setup_reports_m4(self, delay_model):
        # building the fixture already asserts exit 0 and the m = 4 report
        assert delay_model.exists()

    def test_invalid_radius_exits_2(self, tmp_path, capsys):
        assert main(["offline", "--problem", "delay", "--disk", "0,0,-1",
                     "--p", "30:35", "--q", "4", "--r", "4", "--N", "16",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_rank_mismatch_exits_2_listing_ranks(self, tmp_path, capsys):
        # sqrt(1-p) crosses the |z| = 0.6 boundary inside [0.44, 0.76]
        assert main(["offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.6", "--p", "0.44:0.76", "--q", "4",
                     "--r", "8", "--N", "512",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "ranks" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_rank_change_names_its_runs(self, tmp_path, capsys):
        # over 20:35 delay's eigenvalues cross the disk: rank 2, then 4
        assert main(["offline", "--problem", "delay", "--disk", "0,0,0.075",
                     "--p", "20:35", "--q", "40", "--r", "20", "--N", "128",
                     "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert "rank 2 on [20, 23.85]" in err
        assert "rank 4 on [24.62, 35]" in err
        assert "crossing" in err and "raising N" in err
        assert not (tmp_path / "m.json").exists()

    def test_two_parameter_samples_exit_2(self, tmp_path, capsys):
        assert main(["offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.6", "--p", "0.75:1.25", "--q", "2",
                     "--r", "20", "--N", "512",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "q >= 3" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_unknown_problem_exits_2(self, tmp_path):
        assert main(["offline", "--problem", "nope", "--disk", "0,0,1",
                     "--p", "0:1", "--q", "4", "--r", "4", "--N", "16",
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_eigenvalue_on_quadrature_node_exits_3(self, tmp_path, capsys):
        # at p = 0.75 the eigenvalue 0.5 sits on the node z = 0.5 of the
        # 8-node rule on |z| = 0.5
        assert main(["offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.5", "--p", "0.75:1.0", "--q", "4",
                     "--r", "4", "--N", "8",
                     "--out", str(tmp_path / "m.json")]) == 3
        assert "singular" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_non_finite_radius_exits_2(self, tmp_path, capsys):
        assert main(["offline", "--problem", "delay", "--disk", "0,0,nan",
                     "--p", "30:35", "--q", "4", "--r", "4", "--N", "16",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1e-12")])
    def test_bad_tolerance_exits_2_writing_nothing(self, tmp_path, capsys,
                                                   flag, value):
        assert main(["offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.6", "--p", "0.75:1.25", "--q", "4",
                     "--r", "4", "--N", "16", f"{flag}={value}",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sampling_disk_places_the_sample_points(self, tmp_path):
        # a radius other than 0.1, the default boundary of this domain
        path = tmp_path / "m.json"
        assert main(["offline", "--problem", "delay", "--disk", "0,0,0.075",
                     "--sampling-disk", "0,0,0.15", "--p", "30:35",
                     "--q", "40", "--r", "20", "--N", "128", "--seed", "7",
                     "--out", str(path)]) == 0
        np.testing.assert_allclose(
            np.abs(load_model(path).config.sample_points), 0.15, atol=1e-15)

    @pytest.mark.parametrize("boundary", [
        ["--sampling-disk", "0,0,0.05"],
        ["--sampling-ellipse", "0,0,0.1,0.05"]], ids=["disk", "ellipse"])
    def test_crossing_sampling_boundary_exits_2_writing_nothing(
            self, tmp_path, capsys, boundary):
        assert main(["offline", "--problem", "delay", "--disk", "0,0,0.075",
                     *boundary, "--p", "30:35", "--q", "4", "--r", "4",
                     "--N", "16", "--out", str(tmp_path / "m.json")]) == 2
        assert ("is not strictly outside the domain"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_sampling_disk_and_ellipse_exit_2(self, tmp_path, capsys):
        assert main(["offline", "--problem", "delay", "--disk", "0,0,0.075",
                     "--sampling-disk", "0,0,0.1",
                     "--sampling-ellipse", "0,0,0.1,0.2", "--p", "30:35",
                     "--q", "4", "--r", "4", "--N", "16",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert ("either a disk or an ellipse, not both"
                in capsys.readouterr().err)
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

    @pytest.mark.parametrize("flag, value, message", [
        ("q", "0", "need r >= 1 and q >= 1"),
        ("r", "0", "need r >= 1 and q >= 1"),
        ("N", "0", "trapezoid rule needs N >= 2 nodes"),
        ("N", "1", "trapezoid rule needs N >= 2 nodes"),
    ], ids=["q-0", "r-0", "N-0", "N-1"])
    def test_non_positive_counts_exit_2_writing_nothing(self, tmp_path, capsys,
                                                        flag, value, message):
        counts = {"q": "4", "r": "4", "N": "16", flag: value}
        args = [a for k, v in counts.items() for a in (f"--{k}", v)]
        assert main(["offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.6", "--p", "0.75:1.25", *args,
                     "--out", str(tmp_path / "m.json")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore:barycentric fit did not reach")
    def test_identical_config_and_seed_byte_identical_models(self, tmp_path):
        args = ["offline", "--problem", "linear-demo", "--disk", "0,0,0.6",
                "--p", "0.75:1.25", "--q", "8", "--r", "6", "--N", "128",
                "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("ignore:barycentric fit did not reach")
    @pytest.mark.parametrize("verbose", [True, False])
    def test_verbose_flag_prints_rank_check_record(self, tmp_path, capsys,
                                                   verbose):
        assert main([*(["-v"] if verbose else []),
                     "offline", "--problem", "linear-demo",
                     "--disk", "0,0,0.6", "--p", "0.75:1.25", "--q", "4",
                     "--r", "8", "--N", "128",
                     "--out", str(tmp_path / "m.json")]) == 0
        err = capsys.readouterr().err
        assert ("rank check: ranks [2, 2, 2, 2]" in err) == verbose
        assert "rank gap = " in err
        assert "online directions: 8 of 8" in err

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
    def test_four_eigenvalue_lines(self, delay_model, capsys):
        assert main(["online", "--model", str(delay_model), "--p", "30"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines()[1:] if l.strip()]
        assert len(rows) == 4

    def test_extrapolation_warning_on_stderr(self, delay_model):
        # a new interpreter: in-process, pytest would capture the warning
        proc = subprocess.run(
            [sys.executable, "-m", "pnlevp.cli", "online",
             "--model", str(delay_model), "--p", "50"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines()[1:] if l.strip()]
        assert len(rows) == 4
        assert "outside the sampled range" in proc.stderr

    def test_json_output_parses(self, delay_model, capsys):
        assert main(["online", "--model", str(delay_model), "--p", "32",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["eigenvalues"]) == 4
        assert all(flag for flag in doc["in_domain"])
        assert max(doc["residuals"]) <= 1e-6

    def test_json_writes_null_for_non_finite_residuals(self, delay_model,
                                                       capsys):
        # far outside the sampled range the residuals overflow; JSON holds
        # no Infinity, so they are written as null
        with pytest.warns(UserWarning, match="outside the sampled range"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["online", "--model", str(delay_model), "--p", "1e5",
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert len(doc["residuals"]) == len(doc["eigenvalues"]) == 4
        assert None in doc["residuals"]

    def test_json_reports_rank_diagnostics(self, delay_model, capsys):
        assert main(["online", "--model", str(delay_model), "--p", "32.5",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank_gap"] > 1e8
        assert doc["discarded_infinite"] == 0

    def test_json_reports_min_denominator(self, delay_model, capsys):
        assert main(["online", "--model", str(delay_model), "--p", "32.5",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["min_denominator"] > 0.0

    def test_json_of_an_empty_answer(self, delay_model, tmp_path, capsys):
        # zero tangential data (replace re-derives the collapsed tensor)
        # leave the Loewner matrix rank 0: no eigenvalues and no residuals
        model = load_model(delay_model)
        zero = np.zeros_like(model.left_vals)
        path = tmp_path / "empty.model"
        save_model(replace(model, left_vals=zero, right_vals=zero), path)
        assert main(["online", "--model", str(path), "--p", "32",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eigenvalues"] == [] and doc["in_domain"] == []
        assert doc["rank_gap"] is None
        assert doc["discarded_infinite"] == 0
        assert "residuals" not in doc

    def test_synthetic_model_prints_no_residuals(self, tmp_path, capsys):
        # the file names its problem "synthetic", but no instance of that
        # name is the one the model was built from
        domain = Disk(0.0, 1.0)
        problem = SyntheticRationalProblem.inside_domain(domain, 3, (0.0, 1.0),
                                                         seed=1, dim=6)
        config = default_sampling(domain, 20, 10, (0.0, 1.0), seed=0, dim=6)
        path = tmp_path / "synthetic.model"
        save_model(offline(problem, domain, config, 128), path)
        assert main(["online", "--model", str(path), "--p", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "residual" not in lines[0]
        assert len(lines) == 4 and all(len(l.split()) == 3 for l in lines[1:])

    def test_missing_model_exits_1(self, tmp_path):
        assert main(["online", "--model", str(tmp_path / "absent.json"),
                     "--p", "30"]) == 1

    def test_malformed_model_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                    "m": 2}))
        assert main(["online", "--model", str(path), "--p", "1"]) == 1
        assert "malformed model file" in capsys.readouterr().err

    def test_version_1_model_exits_1(self, delay_model, tmp_path, capsys):
        # a version-1 file holds lifts, not the exact samples at the p-nodes
        doc = json.loads(delay_model.read_text())
        doc["format_version"] = 1
        path = tmp_path / "v1.model"
        path.write_text(json.dumps(doc))
        assert main(["online", "--model", str(path), "--p", "32"]) == 1
        assert ("unsupported model format version 1"
                in capsys.readouterr().err)

    def test_version_2_model_exits_1(self, delay_model, tmp_path, capsys):
        # a version-2 file stores each array as [re, im] decimal pairs
        def decimal_pairs(node):
            if not isinstance(node, dict):
                return node
            if set(node) == {"shape", "c16"}:
                a = decode_array(node)
                return np.stack([a.real, a.imag], axis=-1).tolist()
            return {k: decimal_pairs(v) for k, v in node.items()}

        doc = decimal_pairs(json.loads(delay_model.read_text()))
        doc["format_version"] = 2
        path = tmp_path / "v2.model"
        path.write_text(json.dumps(doc))
        assert main(["online", "--model", str(path), "--p", "32"]) == 1
        err = capsys.readouterr().err
        assert "unsupported model format version 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda a: a.update(c16="@" + a["c16"][1:]),
                     "base64", id="not-base64"),
        pytest.param(lambda a: a.update(c16=base64.b64encode(
                         base64.b64decode(a["c16"])[:-1]).decode("ascii")),
                     "array of shape (20, 6, 10) needs 19200 bytes, got "
                     "19199", id="short-blob"),
        pytest.param(lambda a: a.update(shape=[20, 6, 11]),
                     "array of shape (20, 6, 11) needs 21120 bytes, got "
                     "19200", id="blob-shape-mismatch"),
        pytest.param(lambda a: a.pop("c16"), "'c16'", id="missing-c16"),
        pytest.param(lambda a: a.update(shape=[-1, 6, 10]),
                     "array shape [-1, 6, 10] is not a list of ints >= 0",
                     id="negative-shape"),
        pytest.param(lambda a: a.update(shape=[20.0, 6, 10]),
                     "array shape [20.0, 6, 10] is not a list of ints >= 0",
                     id="float-shape"),
        pytest.param(lambda a: a.update(shape=1200),
                     "array shape 1200 is not a list of ints >= 0",
                     id="int-shape"),
    ])
    def test_malformed_array_exits_1(self, delay_model, tmp_path, capsys,
                                     edit, message):
        doc = json.loads(delay_model.read_text())
        edit(doc["left_vals"])
        path = tmp_path / "array.model"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="malformed model file"):
            load_model(path)
        assert main(["online", "--model", str(path), "--p", "32"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: malformed model file ")
        assert message in err and out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_model_value_exits_1(self, delay_model, tmp_path,
                                            capsys, value):
        def poison(a):
            a[0, 0, 0] = complex(float(value), a[0, 0, 0].imag)
            return a

        doc = json.loads(delay_model.read_text())
        edit_array(doc, "left_vals", edit=poison)
        path = tmp_path / "non-finite.model"
        path.write_text(json.dumps(doc))
        assert main(["online", "--model", str(path), "--p", "32"]) == 1
        assert ("model arrays must hold finite numbers"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("field, value, message", [
        ("m", -1, "model order m = -1 is not an integer in [0, 20]"),
        ("m", 21, "model order m = 21 is not an integer in [0, 20]"),
        ("m", "4", "model order m = '4' is not an integer"),
        ("m", 4.5, "model order m = 4.5 is not an integer"),
        ("m", True, "model order m = True is not an integer"),
        ("metadata", [], "model metadata must be a JSON object"),
    ])
    def test_malformed_model_field_exits_1(self, delay_model, tmp_path,
                                           capsys, field, value, message):
        doc = json.loads(delay_model.read_text())
        doc[field] = value
        path = tmp_path / "field.model"
        path.write_text(json.dumps(doc))
        assert main(["online", "--model", str(path), "--p", "32"]) == 1
        out, err = capsys.readouterr()
        assert message in err and out == ""

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: edit_array(d, "sampling", "left_dirs",
                                          edit=lambda a: a[:-1]),
                     "need r left and r right probing directions",
                     id="left-dirs-row"),
        pytest.param(lambda d: edit_array(d, "left_vals",
                                          edit=lambda a: a[:-1]),
                     "left_vals and right_vals differ in shape",
                     id="left-vals-direction"),
        # the delay model has n = 10
        pytest.param(lambda d: edit_array(d, "sampling", "left_dirs",
                                          edit=lambda a: a[:, :-1]),
                     "left and right probing directions differ in shape: "
                     "(20, 9) and (20, 10)", id="left-dirs-component"),
        pytest.param(lambda d: edit_array(d, "sampling", "right_dirs",
                                          edit=lambda a: a[:, :-1]),
                     "left and right probing directions differ in shape: "
                     "(20, 10) and (20, 9)", id="right-dirs-component"),
        pytest.param(lambda d: [edit_array(d, key, edit=lambda a: a[..., :-1])
                                for key in ("left_vals", "right_vals")],
                     "sample vectors of length 9 do not fit probing "
                     "directions of length 10", id="vals-component"),
        # the delay model has 5 z-nodes and 6 p-nodes
        pytest.param(lambda d: edit_array(d, "scalar_nodes", "p",
                                          edit=lambda a: a[:-1]),
                     "coeffs of shape (5, 6) do not fit the node grid (5, 5)",
                     id="p-node"),
        pytest.param(lambda d: edit_array(d, "scalar_nodes", "z",
                                          edit=lambda a: a[:-1]),
                     "coeffs of shape (5, 6) do not fit the node grid (4, 6)",
                     id="z-node"),
        pytest.param(lambda d: edit_array(d, "alpha", edit=lambda a: a[0]),
                     "coeffs of shape (6,) do not fit the node grid (5, 6)",
                     id="1-d-alpha"),
        pytest.param(lambda d: edit_array(d, "alpha", edit=lambda a: a[:-1]),
                     "coeffs of shape (4, 6) do not fit the node grid (5, 6)",
                     id="alpha-row"),
        pytest.param(lambda d: edit_array(d, "scalar_values",
                                          edit=lambda a: a[:-1]),
                     "node_values of shape (4, 6) do not fit the node grid "
                     "(5, 6)", id="scalar-values-row"),
        pytest.param(lambda d: edit_array(d, "scalar_values",
                                          edit=lambda a: a[:, :-1]),
                     "node_values of shape (5, 5) do not fit the node grid "
                     "(5, 6)", id="scalar-values-column"),
        pytest.param(lambda d: d["domain"].update(radius=-0.075),
                     "ellipse semi-axes must be positive",
                     id="negative-radius"),
        pytest.param(lambda d: edit_array(d, "sampling", "sample_points",
                                          edit=lambda a: a[:-1]),
                     "need an even, positive number of sample points",
                     id="odd-sample-points"),
        pytest.param(lambda d: edit_array(d, "sampling", "sample_points",
                                          edit=_theta_is_sigma),
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

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_parameter_exits_2(self, delay_model, capsys, p):
        assert main(["online", "--model", str(delay_model), "--p", p]) == 2
        assert "is not finite" in capsys.readouterr().err


class TestSweep:
    def test_single_row_file(self, delay_model, tmp_path, capsys):
        out = tmp_path / "sweep.dat"
        assert main(["sweep", "--model", str(delay_model), "--p", "30:35",
                     "--n-test", "1", "--out", str(out)]) == 0
        assert f"output written to {out}" in capsys.readouterr().err
        data = np.loadtxt(out, ndmin=2)
        assert data.shape == (1, 1 + 2 * 4 + 1)

    def test_repeated_sweeps_write_identical_bytes(self, delay_model,
                                                   tmp_path):
        outs = []
        for name in ("a.dat", "b.dat", "c.dat"):
            out = tmp_path / name
            assert main(["sweep", "--model", str(delay_model),
                         "--p", "30:35", "--n-test", "20",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_stdout_table(self, delay_model, capsys):
        assert main(["sweep", "--model", str(delay_model), "--p", "31:32",
                     "--n-test", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 4

    def test_invalid_range_exits_2(self, delay_model):
        assert main(["sweep", "--model", str(delay_model), "--p", "35:30",
                     "--n-test", "3"]) == 2

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


    def test_json_writes_null_for_missing_values(self, delay_model,
                                                 monkeypatch, capsys):
        # a row without eigenvalues pads them with NaN and keeps a NaN
        # residual; JSON holds neither, so they are written as null
        def answer(model, p_hat):
            sol = online(model, p_hat)
            if p_hat == 32.5:
                sol = replace(sol, eigenvalues=sol.eigenvalues[:0],
                              V=sol.V[:, :0])
            return sol

        monkeypatch.setattr(bench_mod, "online", answer)
        assert main(["sweep", "--model", str(delay_model), "--p", "30:35",
                     "--n-test", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["eigenvalues"][1] == [None] * 4
        assert doc["max_residuals"][1] is None
        for row in (0, 2):
            assert None not in doc["eigenvalues"][row]
            assert doc["max_residuals"][row] <= 1e-6


class TestBench:
    def test_unknown_name_exits_2_listing(self):
        # a new interpreter: the entry point passes the exit code on
        proc = subprocess.run(
            [sys.executable, "-m", "pnlevp.cli", "bench", "no-such-benchmark"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "linear-1" in proc.stderr
        assert "damped-string-2" in proc.stderr

    def test_list_when_omitted(self, capsys):
        assert main(["bench"]) == 0
        assert "delay" in capsys.readouterr().err

    def test_no_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        # the sweep table is opt-in: a file of its name is left as it was
        monkeypatch.chdir(tmp_path)
        mine = tmp_path / "linear-2-sweep.dat"
        mine.write_text("my notes\n")
        assert main(["bench", "linear-2"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["linear-2-sweep.dat"]
        assert mine.read_text() == "my notes\n"

    @pytest.mark.parametrize("name", sorted(bench_mod.BENCHMARKS))
    def test_no_eigenpairs_fail_with_exit_3(self, name, monkeypatch, capsys):
        # an online step that answers nothing leaves every check something
        # to report, FAIL first for the residual gate, and none raises
        def empty(model, p_hat):
            none = np.zeros((model.config.left_dirs.shape[1], 0), complex)
            return EigenSolution(p_hat=complex(p_hat), eigenvalues=none[0],
                                 V=none, W=none, in_domain=np.zeros(0, bool))

        monkeypatch.setattr(bench_mod, "online", empty)
        assert not bench_mod.run_benchmark(name).passed
        assert main(["bench", name]) == 3
        out = capsys.readouterr().out
        assert out.startswith("FAIL  max residual over 200 test parameters")
        assert "no eigenpair at 200 of 200 test parameters" in out

    def test_lost_eigenvalue_fails_linear_1(self, monkeypatch, capsys):
        # an online step that keeps only the first eigenvalue of each answer
        # fails the eigenvalue check, which compares counts with the oracle
        answer = bench_mod.online

        def first_only(model, p_hat):
            sol = answer(model, p_hat)
            return replace(sol, eigenvalues=sol.eigenvalues[:1],
                           V=sol.V[:, :1], W=sol.W[:, :1],
                           in_domain=sol.in_domain[:1])

        monkeypatch.setattr(bench_mod, "online", first_only)
        assert not bench_mod.run_benchmark("linear-1").passed
        assert main(["bench", "linear-1"]) == 3
        assert ("FAIL  eigenvalues match +-sqrt(1-p) to 1e-8 away from p=1"
                in capsys.readouterr().out)

    def test_out_dir_gets_the_sweep_table(self, tmp_path, monkeypatch):
        runs = []
        run_benchmark = bench_mod.run_benchmark

        def recorded(*args, **kwargs):
            runs.append(run_benchmark(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(bench_mod, "run_benchmark", recorded)
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "tables"
        assert main(["bench", "linear-2", "--out-dir", str(out_dir)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["tables"]
        assert [p.name for p in out_dir.iterdir()] == ["linear-2-sweep.dat"]
        assert ((out_dir / "linear-2-sweep.dat").read_text()
                == bench_mod.sweep_table(runs[0].sweep))


class TestOutputFiles:
    @pytest.mark.parametrize("command", [
        ("online", "--p", "31"),
        ("online", "--p", "31", "--json"),
        ("sweep", "--p", "30:35", "--n-test", "2"),
        ("sweep", "--p", "30:35", "--n-test", "2", "--json"),
    ])
    def test_fifo_out_refused(self, delay_model, tmp_path, capsys, command):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert main([command[0], "--model", str(delay_model),
                     *command[1:], "--out", str(fifo)]) == 1
        assert "not a regular file" in capsys.readouterr().err
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_neighbouring_tmp_file_kept(self, delay_model, tmp_path):
        out = tmp_path / "sweep.dat"
        mine = tmp_path / "sweep.dat.tmp"
        mine.write_text("not the program's\n")
        assert main(["sweep", "--model", str(delay_model), "--p", "30:35",
                     "--n-test", "2", "--out", str(out)]) == 0
        assert mine.read_text() == "not the program's\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sweep.dat", "sweep.dat.tmp"]
        assert np.loadtxt(out, ndmin=2).shape == (2, 1 + 2 * 4 + 1)
