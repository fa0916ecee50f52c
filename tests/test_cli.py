import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ilgraph.gamma
import ilgraph.linalg
import ilgraph.solver
from ilgraph.cli import build_parser, main, write_report
from ilgraph.inpaint import Image, psnr, read_pgm, write_pgm
from ilgraph.solver import ConvergenceError, SolverConfig

# every field of the solver configuration a run solves with
SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}


@pytest.fixture
def problem_files(tmp_path):
    """Small connected graph + labels in the CSV formats the CLI reads."""
    rng = np.random.default_rng(0)
    n = 12
    lines = []
    for i in range(n):
        j = (i + 1) % n
        w = rng.uniform(0.2, 1.0)
        lines.append(f"{i},{j},{w:.6f}")
        lines.append(f"{j},{i},{w:.6f}")
    graph = tmp_path / "graph.csv"
    graph.write_text("\n".join(lines) + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0,1.0\n6,-1.0\n")
    return graph, labels


def _small_image(tmp_path):
    """A 16x16 PGM whose 3x3 patches are all distinct."""
    yy, xx = np.mgrid[0:16, 0:16]
    src = tmp_path / "img.pgm"
    write_pgm(Image(np.clip(127.5 + 100 * np.sin((xx + yy) / np.sqrt(1.7))
                            + 0.41 * yy, 0, 255)), src)
    return src


class TestExitRule:
    @pytest.mark.parametrize("command", ["solve", "toy2d", "inpaint",
                                         "inpaint-gl", "toy2d-gl",
                                         "toy2d-wnll"])
    def test_unconverged_linear_solve_exit_2(self, problem_files, tmp_path,
                                             monkeypatch, command):
        # every linear solve reports a miss; the run still finishes
        calls = []
        solve = ilgraph.solver.solve_symmetric

        def unconverged(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            calls.append(1)
            return x, dataclasses.replace(report, converged=False)

        monkeypatch.setattr(ilgraph.solver, "solve_symmetric", unconverged)
        out = tmp_path / "o"
        graph, labels = problem_files
        src = _small_image(tmp_path)
        patch = ["--patch", "3", "--k", "8", "--k-sigma", "4"]
        toy = ["toy2d", "--grid", "8", "--sigma", "0.2", "--k", "6", "--method"]
        argv = {"solve": ["solve", str(graph), str(labels)],
                "toy2d": [*toy, "il"], "toy2d-gl": [*toy, "gl"],
                "toy2d-wnll": [*toy, "wnll"],
                "inpaint": ["inpaint", str(src), "--mask-density", "0.3",
                            "--method", "il", "--outer-iters", "2", *patch],
                "inpaint-gl": ["inpaint", str(src), "--mask-density", "0.3",
                               "--method", "gl", "--oracle-weights", str(src),
                               *patch]}[command]
        assert main(["--out", str(out), *argv]) == 2
        report = json.loads((out / "report.json").read_text())
        if command in ("inpaint-gl", "toy2d-gl", "toy2d-wnll"):
            # one value update: the record of a single solve
            assert report["converged"] is False
            assert (report["iterations"] == report["linear_unconverged"]
                    == len(calls) == 1)
        else:
            assert report["linear_unconverged"] == len(calls) > 1
        assert report["linear_residual_max"] <= 1e-10

    def test_unconverged_wnll_solve_in_toy2d_exit_2(self, tmp_path,
                                                    monkeypatch):
        # IL's solves meet lin_tol; the WNLL solve that follows does not
        il, solve = ilgraph.solver.il_solve, ilgraph.solver.solve_symmetric
        il_done = []

        def il_then_flag(*args, **kwargs):
            result = il(*args, **kwargs)
            il_done.append(1)
            return result

        def flagged_after_il(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            return x, dataclasses.replace(
                report, converged=report.converged and not il_done)

        monkeypatch.setattr(ilgraph.solver, "il_solve", il_then_flag)
        monkeypatch.setattr(ilgraph.solver, "solve_symmetric", flagged_after_il)
        out = tmp_path / "o"
        assert main(["--out", str(out), "toy2d", "--grid", "8", "--sigma",
                     "0.2", "--k", "6"]) == 2
        report = json.loads((out / "report.json").read_text())
        assert il_done and report["linear_unconverged"] == 1
        assert report["converged"] is False
        assert report["c_star"] > 0 and report["iterations"] > 1  # IL's

    def test_unconverged_il_inpaint_exit_2(self, tmp_path, monkeypatch):
        # every linear solve meets lin_tol, the IL iteration does not
        il = ilgraph.solver.il_solve

        def unconverged(*args, **kwargs):
            u, diag = il(*args, **kwargs)
            return u, dataclasses.replace(diag, converged=False)

        monkeypatch.setattr(ilgraph.solver, "il_solve", unconverged)
        out = tmp_path / "o"
        src = _small_image(tmp_path)
        assert main(["--out", str(out), "inpaint", str(src),
                     "--mask-density", "0.3", "--method", "il",
                     "--oracle-weights", str(src), "--patch", "3", "--k", "8",
                     "--k-sigma", "4"]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert report["linear_unconverged"] == 0

    @pytest.mark.parametrize("method", ["il", "gl", "wnll"])
    def test_band_cholesky_failure_exit_2(self, problem_files, tmp_path,
                                          capsys, monkeypatch, method):
        # the cycle's value-update matrix is dense in its RCM band
        def breaks_down(*args, **kwargs):
            raise np.linalg.LinAlgError("2-th leading minor not positive")

        monkeypatch.setattr(ilgraph.linalg, "cholesky_banded", breaks_down)
        graph, labels = problem_files
        code = main(["--out", str(tmp_path / "o"), "solve", "--method", method,
                     str(graph), str(labels)])
        assert code == 2
        assert "not numerically positive definite" in capsys.readouterr().err


NODES = st.sampled_from(["0", "1", "2", "3", "1.5", "-1", "nan", "x"])
WEIGHTS = st.sampled_from(["1", "0.25", "0", "-1", "nan", "inf", "1e300",
                           "1e-300", ""])
LABEL_LINES = st.sampled_from(["3,-1", "1.5,0", "x,1", "2", "", "# note",
                               "0,nan", "9,1", "-1,0", "1,inf"])
# "x" and "abc" are rejected by the parser itself
REALS = ["0", "-1", "1.5", "nan", "inf", "x"]
COUNTS = ["0", "-1", "1", "abc"]


def _field(draw, valid, invalid):
    """valid three times in four, else one of the invalid values."""
    return draw(st.sampled_from(invalid)) if draw(st.integers(0, 3)) == 0 \
        else valid


def _pgm(draw, side):
    """A side x side P5 or P2 image, now and then cut short."""
    pixels = np.random.default_rng(side).integers(0, 256, side * side)
    if draw(st.booleans()):
        data = f"P5\n{side} {side}\n255\n".encode() + bytes(pixels.tolist())
    else:
        data = f"P2\n{side} {side}\n255\n{' '.join(map(str, pixels))}\n".encode()
    return data[:_field(draw, len(data), [len(data) - 1, 9, 0])]


@st.composite
def cli_runs(draw):
    """(files, argv) of one tiny run, argv naming the files by name: valid
    inputs with some fields spoiled, and now and then a flag no command
    knows."""
    files, argv = draw(_command_runs())
    return files, argv + _field(draw, [], [["--bogus"], ["--bogus", "1"]])


@st.composite
def _command_runs(draw):
    method = draw(st.sampled_from(["gl", "wnll", "il"]))
    alpha = _field(draw, "0.01", REALS)
    command = draw(st.sampled_from(["solve", "inpaint", "toy2d", "gamma"]))
    if command == "solve":
        cycle = [(str(i), str(j), "1") for i in range(4) for j in range(4)
                 if (i - j) % 4 in (1, 3)]
        rows = cycle + draw(st.lists(st.tuples(NODES, NODES, WEIGHTS),
                                     max_size=3))
        labels = ["0,1", "2,-0.5"] + draw(st.lists(LABEL_LINES, max_size=2))
        files = {"graph.csv": "\n".join(map(",".join, rows)).encode(),
                 "labels.csv": "\n".join(labels).encode()}
        return files, ["solve", "graph.csv", "labels.csv", "--method", method,
                       "--alpha", alpha]
    if command == "inpaint":
        files = {"img.pgm": _pgm(draw, 5), "truth.pgm": _pgm(draw, 4),
                 "mask.csv": b"0,0\n2,3\n"}
        truth = draw(st.sampled_from([[], ["--ground-truth", "truth.pgm"],
                                      ["--oracle-weights", "truth.pgm"]]))
        density = ["--mask-density", _field(draw, "0.5", REALS)]
        mask = draw(st.sampled_from([density, ["--mask-file", "mask.csv"],
                                     [*density, "--mask-file", "mask.csv"]]))
        return files, ["inpaint", "img.pgm", "--method", method,
                       "--alpha", alpha, *mask,
                       "--patch", _field(draw, "3", COUNTS),
                       "--k", _field(draw, "3", COUNTS),
                       "--k-sigma", _field(draw, "2", COUNTS),
                       "--outer-iters", _field(draw, "1", COUNTS), *truth]
    if command == "toy2d":
        return {}, ["toy2d", "--method", method, "--alpha", alpha,
                    "--grid", _field(draw, "4", COUNTS),
                    "--sigma", _field(draw, "0.5", REALS),
                    "--k", _field(draw, "3", COUNTS)]
    return {}, ["gamma", "--problem", draw(st.sampled_from(["1d", "circle"])),
                "--n-values", _field(draw, "6,8", ["0", "-3", "abc", ""]),
                "--trials", _field(draw, "1", COUNTS),
                "--r-adjust", _field(draw, "1", REALS)]


@settings(max_examples=60, deadline=None)
@given(run=cli_runs())
def test_any_tiny_input_returns_an_exit_code(run):
    # Python exits 1 on an uncaught exception too, so the test asks that
    # main return a code, not that the process exit with one
    files, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [str(Path(tmp) / a) if a in files else a for a in argv]
        assert main(["--out", str(Path(tmp) / "out"), *argv]) in (0, 1, 2)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["toy2d", "--grid", "abc"], ["toy2d", "--sigma", "x"], ["nope"], [],
        ["solve", "g.csv", "l.csv", "--bogus"]])
    def test_parser_rejection_exit_1(self, tmp_path, capsys, argv):
        # argparse would exit 2, the code of solver non-convergence
        assert main(["--out", str(tmp_path / "o"), *argv]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["toy2d", "--grid", "1"], ["toy2d", "--sigma", "-1"],
        ["toy2d", "--sigma", "inf"], ["toy2d", "--k", "0"],
        ["inpaint", "--k-sigma", "0"], ["inpaint", "--k", "5", "--k-sigma", "6"],
        ["inpaint", "--patch", "4"], ["inpaint", "--seed", "-1"],
        ["gamma", "--n-values", "1"], ["gamma", "--r-adjust", "inf"],
        ["gamma", "--trials", "0"], ["gamma", "--seed", "-1"]],
        ids=" ".join)
    def test_argument_check_exit_1_before_the_output_directory(
            self, tmp_path, capsys, argv):
        # every check that needs only the arguments runs before _start;
        # each of these used to leave config.json behind, or a traceback
        if argv[0] == "inpaint":
            argv = ["inpaint", str(_small_image(tmp_path)),
                    "--mask-density", "0.3", *argv[1:]]
        assert main(["--out", str(tmp_path / "o"), *argv]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["inpaint", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: ilgraph")

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "g.csv", "l.csv"])
        assert args.method == "il" and args.alpha == 0.0


def _reject_constant(token):
    raise ValueError(f"invalid JSON token {token}")


class TestWriteReport:
    def test_non_finite_values_are_valid_json(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, {"nan": math.nan, "inf": math.inf,
                            "values": np.array([-np.inf, 1.5, np.nan]),
                            "count": np.int64(3)})
        report = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert report == {"nan": "nan", "inf": "inf",
                          "values": ["-inf", 1.5, "nan"], "count": 3}


class TestSolve:
    def test_il_end_to_end(self, problem_files, tmp_path):
        graph, labels = problem_files
        out = tmp_path / "out"
        code = main(["--out", str(out), "solve", str(graph), str(labels)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["c_star"] > 0 and report["c_final"] > 0
        assert report["linear_unconverged"] == 0
        assert 0 <= report["linear_residual_max"] <= 1e-10
        assert 0 <= report["linear_residual_ratio_max"] <= 1
        sol = np.loadtxt(out / "solution.csv", delimiter=",")
        assert sol.shape == (12, 2)
        assert np.isclose(sol[0, 1], 1.0)
        assert (out / "config.json").exists()

    def test_gl_method(self, problem_files, tmp_path):
        # GL writes the report schema of every method
        graph, labels = problem_files
        keys = {}
        for method in ("gl", "wnll", "il"):
            out = tmp_path / method
            code = main(["--out", str(out), "solve", "--method", method,
                         str(graph), str(labels)])
            assert code == 0
            keys[method] = json.loads((out / "report.json").read_text()).keys()
        assert "linear_iterations" in keys["gl"]
        assert keys["gl"] == keys["wnll"] == keys["il"]

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "solve", "nope.csv", "nada.csv"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_label_line_number(self, problem_files, tmp_path, capsys):
        graph, _ = problem_files
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1.0\noops\n")
        code = main(["--out", str(tmp_path / "o"), "solve", str(graph), str(bad)])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_unsettled_penalty_exit_2(self, problem_files, tmp_path, capsys,
                                      monkeypatch):
        def unsettled(*args, **kwargs):
            raise ConvergenceError("adaptive penalty selection did not settle "
                                   "in 1000 iterations")

        monkeypatch.setattr(ilgraph.solver, "_choose_c_from_g1", unsettled)
        graph, labels = problem_files
        code = main(["--out", str(tmp_path / "o"), "solve", str(graph), str(labels)])
        assert code == 2
        assert "error: adaptive penalty selection" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["-1", "3"])
    def test_label_index_out_of_range_exit_1(self, tmp_path, capsys, index):
        # a 3-node path: -1 must not pin node 2, 3 is no node
        graph = tmp_path / "g.csv"
        graph.write_text("0,1,1.0\n1,0,1.0\n1,2,1.0\n2,1,1.0\n")
        labels = tmp_path / "l.csv"
        labels.write_text(f"0,1.0\n{index},0.0\n")
        code = main(["--out", str(tmp_path / "o"), "solve", str(graph), str(labels)])
        assert code == 1
        assert "error: label indices must lie in [0, 3)" in capsys.readouterr().err

    def test_fractional_label_index_exit_1(self, tmp_path, capsys):
        # a 3-node path: 1.7 must not pin node 1
        graph = tmp_path / "g.csv"
        graph.write_text("0,1,1.0\n1,0,1.0\n1,2,1.0\n2,1,1.0\n")
        labels = tmp_path / "l.csv"
        labels.write_text("0,1.0\n1.7,0.0\n")
        code = main(["--out", str(tmp_path / "o"), "solve", str(graph), str(labels)])
        assert code == 1
        assert ":2: malformed row (node index 1.7 is not an integer)" in (
            capsys.readouterr().err)

    def test_fractional_graph_index_exit_1(self, tmp_path, capsys):
        # 1.6 must not become the edge 1 -> 0
        graph = tmp_path / "g.csv"
        graph.write_text("0,1,1.0\n1.6,0,1.0\n1,2,1.0\n2,1,1.0\n")
        labels = tmp_path / "l.csv"
        labels.write_text("0,1.0\n2,0.0\n")
        code = main(["--out", str(tmp_path / "o"), "solve", str(graph), str(labels)])
        assert code == 1
        assert "node indices must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_alpha_not_finite_exit_1(self, problem_files, tmp_path, capsys, alpha):
        graph, labels = problem_files
        code = main(["--out", str(tmp_path / "o"), "solve", "--alpha", alpha,
                     str(graph), str(labels)])
        assert code == 1
        assert "error: alpha must be" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_exit_1(self, tmp_path, capsys, weight):
        # NaN used to end in a singular-factor traceback, inf in exit 2
        graph = tmp_path / "g.csv"
        graph.write_text(f"0,1,1.0\n1,0,1.0\n1,2,{weight}\n2,1,1.0\n")
        labels = tmp_path / "l.csv"
        labels.write_text("0,1.0\n2,0.0\n")
        code = main(["--out", str(tmp_path / "o"), "solve", str(graph), str(labels)])
        assert code == 1
        assert "weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not text"])
    def test_unreadable_labels_exit_1(self, problem_files, tmp_path, capsys,
                                      kind):
        graph, labels = problem_files
        if kind == "directory":
            labels = tmp_path
        else:
            labels.write_bytes(b"\xff\xfe0,1\n")
        code = main(["--out", str(tmp_path / "o"), "solve", str(graph), str(labels)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {labels}: ")

    def test_out_names_a_file_exit_1(self, problem_files, tmp_path, capsys):
        graph, labels = problem_files
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["--out", str(out), "solve", str(graph), str(labels)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out}: ")

    def test_disconnected_exit_1(self, tmp_path, capsys):
        graph = tmp_path / "g.csv"
        graph.write_text("0,1,1.0\n1,0,1.0\n2,3,1.0\n3,2,1.0\n")
        labels = tmp_path / "l.csv"
        labels.write_text("0,1.0\n")
        code = main(["--out", str(tmp_path / "o"), "solve", str(graph), str(labels)])
        assert code == 1


class TestToy2d:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "toy"
        code = main(["--out", str(out), "toy2d", "--grid", "12",
                     "--sigma", "0.2", "--k", "6", "--method", "all"])
        assert code in (0, 2)
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "method,nonlocal_inf_metric"
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["generating", "gl", "wnll", "il"]
        assert (out / "solution_il.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["linear_unconverged"] == 0
        assert report["linear_residual_max"] >= 0

    @pytest.mark.parametrize("grid", ["-5", "0"])
    def test_bad_grid_exit_1(self, tmp_path, capsys, grid):
        assert main(["--out", str(tmp_path), "toy2d", "--grid", grid]) == 1
        assert capsys.readouterr().err.startswith("error: grid must be")


class TestInpaint:
    def test_oracle_weights_run(self, tmp_path):
        n = 20
        yy, xx = np.mgrid[0:n, 0:n]
        img = Image(np.clip(127.5 + 100 * np.sin((xx + yy) / np.sqrt(1.7))
                            + 0.41 * yy, 0, 255))
        src = tmp_path / "img.pgm"
        write_pgm(img, src)
        out = tmp_path / "o"
        code = main(["--out", str(out), "inpaint", str(src),
                     "--mask-density", "0.3", "--method", "gl",
                     "--patch", "5", "--k", "8", "--k-sigma", "4",
                     "--alpha", "0.25", "--oracle-weights", str(src)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["psnr_db"] > 10
        assert report["converged"] is True
        assert 0 <= report["linear_residual_max"] <= 1e-10
        config = json.loads((out / "config.json").read_text())
        assert SOLVER_KEYS <= config.keys()
        assert config["alpha"] == 0.25
        assert (out / "out.pgm").exists()
        assert (out / "mask.csv").exists()

    def test_psnr_against_ground_truth_with_oracle(self, tmp_path):
        src = _small_image(tmp_path)
        truth = tmp_path / "truth.pgm"
        write_pgm(Image(np.full((16, 16), 100.0)), truth)
        out = tmp_path / "o"
        assert main(["--out", str(out), "inpaint", str(src), "--method", "gl",
                     "--patch", "3", "--k", "8", "--k-sigma", "4",
                     "--mask-density", "0.3", "--oracle-weights", str(src),
                     "--ground-truth", str(truth)]) == 0
        report = json.loads((out / "report.json").read_text())
        # out.pgm holds the result rounded to integers
        expected = psnr(read_pgm(out / "out.pgm"), read_pgm(truth))
        assert report["psnr_db"] == pytest.approx(expected, abs=0.05)
        assert report["psnr_db"] < 15  # the oracle image would give more

    def test_blind_unsettled_penalty_exit_2(self, tmp_path, capsys, monkeypatch):
        def unsettled(*args, **kwargs):
            raise ConvergenceError("adaptive penalty selection did not settle "
                                   "in 1000 iterations")

        monkeypatch.setattr(ilgraph.solver, "_choose_c_from_g1", unsettled)
        yy, xx = np.mgrid[0:16, 0:16]
        src = tmp_path / "img.pgm"
        write_pgm(Image(127.5 + 100 * np.sin((xx + 2 * yy) / 3.0)), src)
        code = main(["--out", str(tmp_path / "o"), "inpaint", str(src),
                     "--mask-density", "0.3", "--method", "il", "--patch", "3",
                     "--k", "8", "--k-sigma", "4", "--outer-iters", "1"])
        assert code == 2
        assert "error: adaptive penalty selection" in capsys.readouterr().err

    def test_flat_image_bandwidth_exit_1(self, tmp_path, capsys):
        # every patch of a constant image is a duplicate: all 256 rows fail
        src = tmp_path / "flat.pgm"
        write_pgm(Image(np.full((16, 16), 100.0)), src)
        code = main(["--out", str(tmp_path / "o"), "inpaint", str(src),
                     "--mask-density", "0.1", "--oracle-weights", str(src),
                     "--patch", "3", "--k", "8", "--k-sigma", "4"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: zero bandwidth at row(s) ")
        assert "..." in err and len(err) < 200

    @staticmethod
    def _inpaint(tmp_path, src, *extra):
        return main(["--out", str(tmp_path / "o"), "inpaint", str(src),
                     "--method", "gl", "--patch", "3", "--k", "4",
                     "--k-sigma", "2", *extra])

    @pytest.mark.parametrize("coords", ["2,6", "-1,2"])
    def test_mask_outside_image_exit_1(self, tmp_path, capsys, coords):
        src = tmp_path / "img.pgm"
        write_pgm(Image(np.full((6, 6), 100.0)), src)
        mask = tmp_path / "mask.csv"
        mask.write_text(f"0,0\n{coords}\n")
        assert self._inpaint(tmp_path, src, "--mask-file", str(mask)) == 1
        assert "inside the 6x6 image" in capsys.readouterr().err

    def test_truncated_p5_raster_exit_1(self, tmp_path, capsys):
        src = tmp_path / "short.pgm"
        src.write_bytes(b"P5\n6 6\n255\n" + bytes(30))
        assert self._inpaint(tmp_path, src, "--mask-density", "0.3") == 1
        assert "truncated P5 raster" in capsys.readouterr().err

    def test_truncated_header_exit_1(self, tmp_path, capsys):
        src = tmp_path / "short.pgm"
        src.write_bytes(b"P5\n6 6\n")
        assert self._inpaint(tmp_path, src, "--mask-density", "0.3") == 1
        assert "truncated PGM header" in capsys.readouterr().err

    def test_zero_outer_iters_exit_1(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        write_pgm(Image(np.full((6, 6), 100.0)), src)
        assert self._inpaint(tmp_path, src, "--mask-density", "0.3",
                             "--outer-iters", "0") == 1
        assert "outer_iters must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["image", "mask"])
    def test_input_is_a_directory_exit_1(self, tmp_path, capsys, which):
        if which == "image":
            code = self._inpaint(tmp_path, tmp_path, "--mask-density", "0.3")
        else:
            code = self._inpaint(tmp_path, _small_image(tmp_path),
                                 "--mask-file", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    @pytest.mark.parametrize("truth", ["missing", "mis-sized",
                                       "missing-with-oracle"])
    def test_bad_ground_truth_exit_1_before_solving(self, tmp_path, capsys,
                                                    truth):
        src = _small_image(tmp_path)
        path = tmp_path / "truth.pgm"
        if truth == "mis-sized":
            write_pgm(Image(np.full((6, 6), 100.0)), path)
        oracle = ["--oracle-weights", str(src)] if "oracle" in truth else []
        assert self._inpaint(tmp_path, src, "--mask-density", "0.3", *oracle,
                             "--ground-truth", str(path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "o" / "out.pgm").exists()

    def test_two_mask_sources_exit_1(self, tmp_path, capsys):
        # --mask-file used to win silently over --mask-density
        src = tmp_path / "img.pgm"
        write_pgm(Image(np.full((6, 6), 100.0)), src)
        mask = tmp_path / "mask.csv"
        mask.write_text("0,0\n")
        assert self._inpaint(tmp_path, src, "--mask-density", "0.3",
                             "--mask-file", str(mask)) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_requires_mask_source(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        write_pgm(Image(np.full((6, 6), 100.0)), src)
        code = main(["--out", str(tmp_path / "o"), "inpaint", str(src),
                     "--method", "gl", "--patch", "3", "--k", "4",
                     "--k-sigma", "2"])
        assert code == 1
        assert "mask" in capsys.readouterr().err


class TestGamma:
    def test_small_study(self, tmp_path):
        out = tmp_path / "g"
        code = main(["--out", str(out), "gamma", "--n-values", "60,120",
                     "--trials", "1"])
        assert code == 0
        study = (out / "study.csv").read_text().strip().splitlines()
        assert study[0].startswith("n,trial")
        assert len(study) == 3
        config = json.loads((out / "config.json").read_text())
        assert config["command"] == "gamma"
        assert config["n_values"] == [60, 120]
        assert SOLVER_KEYS <= config.keys()
        assert config["alpha"] == 0.0

    def test_failed_row_exits_2_and_study_is_written(self, tmp_path,
                                                      monkeypatch):
        il_solve = ilgraph.gamma.il_solve

        def unsettled(graph, labels, cfg=None):
            if graph.n_nodes > 100:
                raise ConvergenceError("did not settle")
            return il_solve(graph, labels, cfg)

        monkeypatch.setattr(ilgraph.gamma, "il_solve", unsettled)
        out = tmp_path / "g"
        code = main(["--out", str(out), "gamma", "--n-values", "60,120",
                     "--trials", "1"])
        assert code == 2
        study = (out / "study.csv").read_text().strip().splitlines()
        assert study[0].endswith(",converged,linear_unconverged,flagged,reason")
        assert study[1].endswith(",1,0,0,")
        assert study[2].endswith(",0,0,1,ConvergenceError: did not settle")

    def test_unconverged_row_exits_2(self, tmp_path, monkeypatch):
        il_solve = ilgraph.gamma.il_solve
        monkeypatch.setattr(
            ilgraph.gamma, "il_solve", lambda graph, labels, cfg=None: il_solve(
                graph, labels, dataclasses.replace(cfg, max_outer_iter=2)))
        out = tmp_path / "g"
        code = main(["--out", str(out), "gamma", "--n-values", "60",
                     "--trials", "1"])
        assert code == 2
        row = (out / "study.csv").read_text().strip().splitlines()[1]
        assert row.endswith(",0,0,0,")

    @pytest.mark.parametrize("flags, message", [
        (["--n-values", "abc"], "error: --n-values: "),
        (["--n-values", "0"], "error: sample sizes must be at least 2"),
        (["--problem", "circle", "--r-adjust", "0"],
         "error: r_adjust must be positive"),
    ])
    def test_bad_input_exit_1(self, tmp_path, capsys, flags, message):
        assert main(["--out", str(tmp_path), "gamma", *flags]) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_bad_trials(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "gamma", "--trials", "0"])
        assert code == 1
