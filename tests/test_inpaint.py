import math

import numpy as np
import pytest

import ilgraph.inpaint
import ilgraph.solver
from ilgraph.graph import InvalidParameterError
from ilgraph.inpaint import (Image, InpaintConfig, SampleMask,
                             extract_patches, inpaint, oracle_weight_inpaint,
                             psnr, read_pgm, write_pgm)
from conftest import desk_image
from ilgraph.solver import SolverConfig


class TestImage:
    def test_rejects_1d(self):
        with pytest.raises(InvalidParameterError):
            Image(np.zeros(4))

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            Image(np.array([[np.nan]]))

    @pytest.mark.parametrize("pixels", [[[-5.0, 300.0]], [[-1e-9]],
                                        [[255.5]], [[np.inf]]])
    def test_rejects_values_outside_0_to_255(self, pixels):
        with pytest.raises(InvalidParameterError, match=r"\[0, 255\]"):
            Image(np.array(pixels))


class TestSampleMask:
    def test_random_density_count(self):
        mask = SampleMask.random((20, 20), 0.1, seed=0)
        assert mask.known.sum() == 40

    def test_random_deterministic(self):
        m1 = SampleMask.random((16, 16), 0.05, seed=3)
        m2 = SampleMask.random((16, 16), 0.05, seed=3)
        assert np.array_equal(m1.known, m2.known)

    @pytest.mark.parametrize("shape", [(0, 5), (-1, 3), (2.5, 3), (3, 0),
                                       (3,), (2, 2, 2)])
    def test_random_rejects_a_bad_shape(self, shape):
        # numpy's own ValueError before
        with pytest.raises(InvalidParameterError, match="^mask "):
            SampleMask.random(shape, 0.5)

    def test_csv_roundtrip(self, tmp_path):
        mask = SampleMask.random((9, 7), 0.2, seed=1)
        mask.to_csv(tmp_path / "m.csv")
        back = SampleMask.from_csv(tmp_path / "m.csv", (9, 7))
        assert np.array_equal(back.known, mask.known)

    def test_rejects_empty_mask(self):
        with pytest.raises(InvalidParameterError):
            SampleMask(np.zeros((3, 3), dtype=bool))

    def test_rejects_bad_density(self):
        with pytest.raises(InvalidParameterError):
            SampleMask.random((4, 4), 0.0)

    @pytest.mark.parametrize("text", ["1,2\n3,x\n", "1,2,3\n"])
    def test_rejects_malformed_csv(self, tmp_path, text):
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(InvalidParameterError):
            SampleMask.from_csv(tmp_path / "m.csv", (4, 4))


class TestPatches:
    def test_hand_reflection_3x3(self):
        img = Image(np.arange(9, dtype=float).reshape(3, 3))
        ps = extract_patches(img, 3, 3)
        assert ps.vectors.shape == (9, 9)
        # corner patch at (0,0): reflection maps index -1 to 1
        # rows sampled: 1,0,1; cols sampled: 1,0,1
        expect = np.array([[4, 3, 4], [1, 0, 1], [4, 3, 4]], dtype=float)
        assert np.array_equal(ps.vectors[0].reshape(3, 3), expect)
        # interior pixel (1,1) sees the raw image
        assert np.array_equal(ps.vectors[4], np.arange(9, dtype=float))

    def test_single_pixel_image_constant(self):
        ps = extract_patches(Image(np.array([[7.0]])), 3, 3)
        assert np.array_equal(ps.vectors, np.full((1, 9), 7.0))

    def test_rejects_even_patch(self):
        with pytest.raises(InvalidParameterError):
            extract_patches(Image(np.zeros((4, 4))), 2, 3)

    def test_rejects_unreflectable(self):
        # half-width 3 exceeds the reflectable range of a 3-row image
        with pytest.raises(InvalidParameterError):
            extract_patches(Image(np.zeros((3, 20))), 7, 3)


class TestPsnr:
    def test_identical_is_inf(self):
        img = Image(np.ones((4, 4)))
        assert psnr(img, img) == math.inf

    def test_constant_offset(self):
        a = Image(np.zeros((8, 8)))
        b = Image(np.full((8, 8), 10.0))
        assert np.isclose(psnr(a, b), 20 * math.log10(25.5))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            psnr(Image(np.zeros((2, 2))), Image(np.zeros((2, 3))))


class TestPgm:
    def test_p5_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image(rng.integers(0, 256, size=(13, 17)).astype(float))
        write_pgm(img, tmp_path / "a.pgm")
        back = read_pgm(tmp_path / "a.pgm")
        assert np.array_equal(back.pixels, img.pixels)

    def test_p2_roundtrip(self, tmp_path):
        px = np.random.default_rng(1).integers(0, 256, size=(5, 9))
        (tmp_path / "a.pgm").write_text(
            "P2\n9 5\n255\n" + "\n".join(" ".join(map(str, row))
                                         for row in px) + "\n")
        back = read_pgm(tmp_path / "a.pgm")
        assert np.array_equal(back.pixels, px)

    @pytest.mark.parametrize("magic", ["P2", "P5"])
    def test_values_are_scaled_from_maxval_to_255(self, tmp_path, magic):
        raster = (b"15 0 5" if magic == "P2" else bytes([15, 0, 5]))
        (tmp_path / "x.pgm").write_bytes(
            f"{magic}\n3 1\n15\n".encode() + raster)
        assert read_pgm(tmp_path / "x.pgm").pixels.tolist() == [[255, 0, 85]]

    @pytest.mark.parametrize("maxval", [11, 13, 249, 255])
    def test_maxval_reads_as_255_exactly(self, tmp_path, maxval):
        # maxval * (255 / maxval) is 255.00000000000003 at 11, 13 and 249
        (tmp_path / "x.pgm").write_text(f"P2\n2 1\n{maxval}\n{maxval} 0\n")
        assert read_pgm(tmp_path / "x.pgm").pixels.tolist() == [[255.0, 0.0]]

    @pytest.mark.parametrize("raster", [b"P2\n2 1\n15\n300 0\n",
                                        b"P2\n2 1\n15\n16 0\n",
                                        b"P2\n2 1\n255\n-1 0\n",
                                        b"P5\n2 1\n15\n\x10\x00"])
    def test_rejects_a_value_outside_0_to_maxval(self, tmp_path, raster):
        (tmp_path / "x.pgm").write_bytes(raster)
        with pytest.raises(InvalidParameterError, match="maxval"):
            read_pgm(tmp_path / "x.pgm")

    def test_p2_with_comments(self, tmp_path):
        (tmp_path / "c.pgm").write_text(
            "P2\n# a comment\n2 2\n255\n0 64\n# another\n128 255\n")
        img = read_pgm(tmp_path / "c.pgm")
        assert np.array_equal(img.pixels, [[0, 64], [128, 255]])

    def test_rejects_unknown_magic(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(InvalidParameterError):
            read_pgm(tmp_path / "x.pgm")

    def test_rejects_16bit(self, tmp_path):
        (tmp_path / "x.pgm").write_text("P2\n1 1\n65535\n300\n")
        with pytest.raises(InvalidParameterError):
            read_pgm(tmp_path / "x.pgm")

    @pytest.mark.parametrize("text, match", [
        ("", "magic"), ("P2\n2 2\n255\n0 64 128\n", "truncated PGM raster"),
        ("P2\n2 2\n255\n0 64 x 1\n", "malformed PGM raster"),
        ("P2\n-2 -2\n255\n0 64 1 1\n", "positive size")])
    def test_rejects_truncated_or_malformed(self, tmp_path, text, match):
        (tmp_path / "x.pgm").write_text(text)
        with pytest.raises(InvalidParameterError, match=match):
            read_pgm(tmp_path / "x.pgm")


def tiny_image(n=24):
    # incommensurate frequencies so that no two patches coincide exactly
    yy, xx = np.mgrid[0:n, 0:n]
    arr = (127.5 + 90 * np.sin((xx + yy) / np.sqrt(1.7))
           + 20 * np.cos(xx / np.sqrt(5.3)) + 0.37 * yy)
    return Image(np.clip(arr, 0, 255))


def tiny_config(method):
    return InpaintConfig(method=method, patch_size=(5, 5), k=10,
                         k_sigma=5, outer_iters=2,
                         solver=SolverConfig(alpha=0.0, max_outer_iter=60))


class TestPipelines:
    def test_oracle_pins_samples_and_range(self):
        img = tiny_image()
        mask = SampleMask.random(img.shape, 0.2, seed=0)
        out, _ = oracle_weight_inpaint(img, mask, tiny_config("gl"))
        assert np.array_equal(out.pixels[mask.known], img.pixels[mask.known])
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 255.0

    def test_blind_inpaint_improves_over_random(self):
        img = tiny_image()
        mask = SampleMask.random(img.shape, 0.3, seed=1)
        out, _ = inpaint(img, mask, tiny_config("wnll"))
        assert np.array_equal(out.pixels[mask.known], img.pixels[mask.known])
        assert psnr(out, img) > 10.0

    def test_blind_deterministic(self):
        img = tiny_image()
        mask = SampleMask.random(img.shape, 0.3, seed=2)
        o1, _ = inpaint(img, mask, tiny_config("gl"))
        o2, _ = inpaint(img, mask, tiny_config("gl"))
        assert np.array_equal(o1.pixels, o2.pixels)

    @pytest.mark.parametrize("method", ["gl", "il"])
    def test_blind_linear_diagnostics_cover_every_solve(self, monkeypatch,
                                                        over_cap, method):
        reports = []
        solve = ilgraph.solver.solve_symmetric

        def recording(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            reports.append(report)
            return x, report

        diags = []
        real = ilgraph.inpaint.solve

        def recording_solve(*args, **kwargs):
            u, diag = real(*args, **kwargs)
            diags.append(diag)
            return u, diag

        monkeypatch.setattr(ilgraph.solver, "solve_symmetric", recording)
        monkeypatch.setattr(ilgraph.inpaint, "solve", recording_solve)
        img = tiny_image()
        mask = SampleMask.random(img.shape, 0.3, seed=1)
        _, diag = inpaint(img, mask, tiny_config(method))
        worst = max(r.relative_residual for r in reports)
        assert len(diags) == 2  # one solve per outer iteration
        if method == "gl":  # one value update per solve, which converged
            assert len(reports) == 2 and diag.converged
        # converged only if both outer iterations' solves did; the other
        # fields are the last solve's
        assert diag.converged == all(d.converged for d in diags)
        assert diag.objective == diags[-1].objective
        assert diag.linear_unconverged == 0
        assert diag.linear_residual_max == worst
        # every solve met its own tolerance; each solve's first value
        # update, the GL system's, met lin_tol
        assert all(r.relative_residual <= r.tol for r in reports)
        lin_tol = tiny_config(method).solver.lin_tol
        firsts = [reports[0], reports[diags[0].iterations]]
        assert all(r.tol == lin_tol and r.relative_residual <= 1e-10
                   for r in firsts)
        assert diag.linear_iterations == sum(r.iterations for r in reports)

    def test_loose_steps_cut_cg_work_on_desk_texture(self, monkeypatch,
                                                      over_cap):
        # steps solved to the objective's relative change, against every
        # step at lin_tol: the same result for far fewer CG iterations
        img = desk_image(32)
        mask = SampleMask.random(img.shape, 0.01, seed=0)
        cfg = InpaintConfig(method="il",
                            solver=SolverConfig(alpha=0.0, max_outer_iter=40))
        out, diag = oracle_weight_inpaint(img, mask, cfg)
        monkeypatch.setattr(ilgraph.solver, "STEP_TOL_MAX", cfg.solver.lin_tol)
        out_pinned, pinned = oracle_weight_inpaint(img, mask, cfg)
        assert diag.linear_unconverged == pinned.linear_unconverged == 0
        assert diag.linear_iterations <= 0.7 * pinned.linear_iterations
        assert (abs(diag.objective - pinned.objective)
                <= 1e-5 * pinned.objective)
        assert abs(psnr(out, img) - psnr(out_pinned, img)) <= 0.01

    def test_caller_solver_config_unchanged(self, monkeypatch):
        received = []
        solve = ilgraph.solver.il_solve

        def recording(graph, labels, cfg=None):
            received.append(cfg)
            return solve(graph, labels, cfg)

        monkeypatch.setattr(ilgraph.solver, "il_solve", recording)
        img = tiny_image()
        mask = SampleMask.random(img.shape, 0.2, seed=0)
        scfg = SolverConfig(alpha=0.5, max_outer_iter=5)
        cfg = InpaintConfig(method="il", patch_size=(5, 5), k=10,
                            k_sigma=5, solver=scfg)
        oracle_weight_inpaint(img, mask, cfg)
        # il_solve solves with the caller's configuration itself
        assert len(received) == 1 and received[0] is scfg
        assert cfg.solver is scfg
        assert scfg == SolverConfig(alpha=0.5, max_outer_iter=5)

    def test_shape_mismatch_rejected(self):
        img = tiny_image()
        mask = SampleMask.random((8, 8), 0.5, seed=0)
        with pytest.raises(InvalidParameterError):
            inpaint(img, mask, tiny_config("gl"))

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            InpaintConfig(method="magic")

    @pytest.mark.parametrize("outer_iters", [0, 2.5, 2.0, math.inf])
    def test_outer_iters_must_be_a_positive_integer(self, outer_iters):
        # 2.5 used to pass here and then fail in range() as a TypeError
        with pytest.raises(InvalidParameterError, match="outer_iters"):
            InpaintConfig(outer_iters=outer_iters)
