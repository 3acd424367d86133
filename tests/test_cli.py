import json
import re
from pathlib import Path

import numpy as np
import pytest

from flrlab.cli import main
from flrlab.config import ConfigError, load_config
from flrlab.covariance import empirical_covariance
from flrlab.designs import sample_design
from flrlab.estimators import flr_pinsker_fit, sample_theta
from flrlab.risk import oracle_level, pinsker_level
from flrlab.serialize import read_responses
from flrlab.streams import derive_rng

from conftest import CONTROLS, blas_counts, needs_openblas

BASE = """
[design]
kind = basis-expansion
alpha = 2.0

[theta]
beta = 2.0
c_theta = 1.0
mode = boundary

[model]
kind = flr
sigma = 1.0
n_grid = 25

[estimator]
kind = pinsker-oracle

[run]
reps = 5
seed = 7
"""

RISK = """
[design]
alpha = 2.0

[theta]
beta = 2.0
c_theta = 1.0
mode = least-favorable

[model]
kind = sequence
sigma = 1.0
n_grid = 100,200,400

[estimator]
kind = pinsker-oracle

[run]
reps = 20
seed = 11
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_unknown_key_is_line_referenced(self, tmp_path):
        path = write_config(tmp_path, "[design]\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert ":2:" in str(err.value) and "bogus" in str(err.value)

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, BASE + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "[run]\nseed = 1\nseed = 2\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "duplicate" in str(err.value)

    def test_reps_floor_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE.replace("reps = 5", "reps = 1"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "reps" in str(err.value)

    def test_comments_and_defaults(self, tmp_path):
        path = write_config(tmp_path, BASE + "# trailing comment\n")
        cfg = load_config(path)
        assert cfg.model.n_grid == (25,)
        assert cfg.estimator.rho is not None
        assert cfg.threads == 1

    def test_smoothness_checked_against_alpha(self, tmp_path):
        # beta > (alpha + 1)/2 always; beta > alpha + 3/2 for the plug-in route
        rough = BASE.replace("beta = 2.0", "beta = 1.5")
        with pytest.raises(ConfigError, match="beta > \\(alpha\\+1\\)/2"):
            load_config(write_config(tmp_path, rough))
        plug_in = BASE.replace("kind = pinsker-oracle", "kind = pinsker-data-driven")
        with pytest.raises(ConfigError, match="plug-in mode needs beta > alpha \\+ 3/2"):
            load_config(write_config(tmp_path, plug_in))
        assert load_config(write_config(tmp_path, plug_in.replace("beta = 2.0", "beta = 4.0")))

    def test_validation_errors_are_line_referenced(self, tmp_path):
        # the line of the rejected key, or of its section header when the key
        # is absent
        data_driven = BASE.replace("beta = 2.0", "beta = 4.0").replace(
            "kind = pinsker-oracle", "kind = pinsker-data-driven")
        for text, key in (
            (BASE.replace("c_theta = 1.0", "c_theta = -1.0"), "c_theta = -1.0"),
            (BASE.replace("beta = 2.0", "beta = 1.5"), "beta = 1.5"),
            (BASE.replace("sigma = 1.0", "sigma = -1.0"), "sigma = -1.0"),
            (BASE.replace("mode = boundary", "mode = wavy"), "mode = wavy"),
            (BASE.replace("alpha = 2.0", "alpha = 1.0"), "alpha = 1.0"),
            (BASE + "threads = 0\n", "threads = 0"),
            (BASE + "level = 1.5\n", "level = 1.5"),
            (BASE.replace("seed = 7\n", ""), "[run]"),
            (BASE.replace("sigma = 1.0", "sigma = 0"), "sigma = 0"),
            (data_driven.replace("n_grid = 25", "n_grid = 5,10,20"), "n_grid = 5,10,20"),
            (BASE.replace("n_grid = 25", "n_grid = 256,256,256"), "n_grid = 256,256,256"),
            (data_driven.replace("kind = flr", "kind = sequence"), "kind = pinsker-data-driven"),
            (BASE.replace("kind = basis-expansion",
                          "kind = integrated-gaussian\nj_truncation = 8"), "j_truncation = 8"),
            (BASE + "draws = 0\n", "draws = 0"),
            (BASE + "draws = 1\n", "draws = 1"),
            (BASE.replace("seed = 7", "seed = -3"), "seed = -3"),
            (RISK.replace("alpha = 2.0", "alpha = 1.0"), "alpha = 1.0"),
        ):
            lines = text.splitlines()
            path = write_config(tmp_path, text, "fixed0.ini")
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert f"fixed0.ini:{lines.index(key) + 1}:" in str(err.value), (key, str(err.value))

    @pytest.mark.parametrize("config, key, value", [
        *(pytest.param(BASE, key, value, id=f"{key}-{value}")
          for key in ("alpha", "beta", "c_theta") for value in ("nan", "inf")),
        pytest.param(RISK, "alpha", "nan", id="sequence-alpha-nan"),
    ])
    def test_non_finite_parameters_are_line_referenced(self, tmp_path, config, key, value):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", config, flags=re.M)
        path = write_config(tmp_path, text, "finite.ini")
        with pytest.raises(ConfigError, match="must be finite") as err:
            load_config(path)
        assert f"finite.ini:{text.splitlines().index(f'{key} = {value}') + 1}:" in str(err.value)

    def test_rho_checked_at_load_time(self, tmp_path):
        # rho must lie in (alpha/(2 alpha + 3), 1/2) = (2/7, 1/2) at alpha = 2
        for rho in ("0.7", "0.5", "0.2", "-0.1"):
            text = BASE.replace("kind = pinsker-oracle\n", f"kind = pinsker-oracle\nrho = {rho}\n")
            path = write_config(tmp_path, text, "rho.ini")
            with pytest.raises(ConfigError, match="rho must") as err:
                load_config(path)
            assert f"rho.ini:{text.splitlines().index(f'rho = {rho}') + 1}:" in str(err.value)
        text = BASE.replace("kind = pinsker-oracle\n", "kind = pinsker-oracle\nrho = 0.4\n")
        assert load_config(write_config(tmp_path, text)).estimator.rho == 0.4

    def test_grid_size_checked_at_load_time(self, tmp_path):
        # the grid must resolve 2 max(coeff_budget, J) nodes; J defaults to 128
        for text, key in (
            (BASE.replace("alpha = 2.0", "alpha = 2.0\ngrid_size = 1"), "grid_size = 1"),
            (BASE.replace("alpha = 2.0", "alpha = 2.0\ngrid_size = 255"), "grid_size = 255"),
            (BASE.replace("alpha = 2.0", "alpha = 2.0\nj_truncation = 600"), "[design]"),
        ):
            path = write_config(tmp_path, text, "grid.ini")
            with pytest.raises(ConfigError, match="grid_size") as err:
                load_config(path)
            assert f"grid.ini:{text.splitlines().index(key) + 1}:" in str(err.value)
        text = BASE.replace("alpha = 2.0", "alpha = 2.0\ngrid_size = 256")
        assert load_config(write_config(tmp_path, text)).model.design.grid_size == 256
        # Brownian designs and theta are sine coefficients: the grid resolves
        # theta's 64 of them from 65 nodes, and Fourier functions play no part
        gaussian = BASE.replace("kind = basis-expansion", "kind = integrated-gaussian")
        text = gaussian.replace("alpha = 2.0", "alpha = 2.0\ngrid_size = 64")
        path = write_config(tmp_path, text, "sine.ini")
        with pytest.raises(ConfigError, match="cannot resolve 64 sine functions") as err:
            load_config(path)
        assert f"sine.ini:{text.splitlines().index('grid_size = 64') + 1}:" in str(err.value)
        for grid_size in (65, 100, 128):
            text = gaussian.replace("alpha = 2.0", f"alpha = 2.0\ngrid_size = {grid_size}")
            assert load_config(write_config(tmp_path, text)).model.design.grid_size == grid_size

    def test_cutoff_beyond_the_expansion_is_line_referenced(self, tmp_path):
        # k = 3 at the largest n = 2048 (m = 1024), more than J = 2
        text = (BASE.replace("alpha = 2.0", "alpha = 2.0\nj_truncation = 2")
                .replace("kind = pinsker-oracle", "kind = cutoff")
                .replace("n_grid = 25", "n_grid = 512,1024,2048"))
        path = write_config(tmp_path, text, "cut.ini")
        with pytest.raises(ConfigError, match="k = 3 .* J = 2") as err:
            load_config(path)
        assert f"cut.ini:{text.splitlines().index('j_truncation = 2') + 1}:" in str(err.value)
        assert load_config(write_config(tmp_path, text.replace("j_truncation = 2",
                                                               "j_truncation = 3")))

    def test_cutoff_on_gaussian_designs_accepted(self, tmp_path):
        # theta and the cutoff fit share the sine eigenbasis of Brownian designs
        text = BASE.replace("kind = basis-expansion", "kind = integrated-gaussian").replace(
            "kind = pinsker-oracle", "kind = cutoff")
        cfg = load_config(write_config(tmp_path, text, "gauss.ini"))
        assert cfg.estimator.kind == "cutoff" and cfg.model.design.basis == "sine"

    def test_readme_config_block_loads(self, tmp_path):
        # the documented config names only live keys and kinds, also the keys
        # it shows commented out
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = load_config(write_config(tmp_path, block, "readme.ini"))
        assert cfg.estimator.kind == "cutoff" and cfg.model.kind == "flr"
        every_key = re.sub(r"^# (\w+ = )", r"\1", block, flags=re.M)
        assert every_key != block
        assert load_config(write_config(tmp_path, every_key, "readme.ini"))

    def test_bad_value_type(self, tmp_path):
        path = write_config(tmp_path, BASE.replace("sigma = 1.0", "sigma = abc"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "sigma" in str(err.value)


class TestCliExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[design]\nbogus = 1\n")
        rc = main(["risk", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_cutoff_beyond_the_expansion_exits_2_at_its_line(self, tmp_path, capsys):
        text = (BASE.replace("alpha = 2.0", "alpha = 2.0\nj_truncation = 2")
                .replace("kind = pinsker-oracle", "kind = cutoff")
                .replace("n_grid = 25", "n_grid = 512,1024,2048"))
        path = write_config(tmp_path, text, "cut.ini")
        assert main(["risk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"cut.ini:{text.splitlines().index('j_truncation = 2') + 1}:" in err
        assert "lead" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--threads", "0"), ("--threads", "-4"),
                                             ("--seed", "-1")])
    def test_bad_override_exits_2(self, tmp_path, capsys, flag, value):
        # an override is checked by the same rule as its config key
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(write_config(tmp_path, BASE)), flag, value,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config error: run.{flag[2:]} must be" in err, err
        assert not out.exists()

    def test_reps_of_one_exits_2(self, tmp_path):
        path = write_config(tmp_path, BASE.replace("reps = 5", "reps = 1"))
        assert main(["risk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_degenerate_design_exits_3(self, tmp_path):
        bad = BASE.replace("[design]\nkind = basis-expansion\nalpha = 2.0",
                           "[design]\nkind = basis-expansion\nalpha = 2.0\nj_truncation = 8")
        path = write_config(tmp_path, bad)
        out = tmp_path / "o"
        rc = main(["transform", "--config", str(path), "--out", str(out)])
        assert rc == 3
        assert not any(out.glob("*.csv")), "partial outputs must be removed"

    @pytest.mark.parametrize("command", ["transform", "equivalence"])
    def test_short_expansion_names_its_length(self, tmp_path, capsys, command):
        # the default expansion has J = min(2n, 128) terms: rank <= 128 < n = 200
        path = write_config(tmp_path, BASE.replace("n_grid = 25", "n_grid = 200"))
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "J = 128 Fourier terms" in err and "n = 200" in err
        assert "j_truncation >= n" in err
        assert "numerically rank deficient" not in err


    def test_two_draws_reject_no_coordinate(self, tmp_path):
        # the two routes share their law, and the exact KS law of two draws
        # against two rejects nothing at the Bonferroni level
        text = (BASE.replace("n_grid = 25", "n_grid = 64,128").replace("reps = 5", "reps = 2")
                + "draws = 2\n")
        out = tmp_path / "o"
        assert main(["equivalence", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "equivalence.json").read_text(encoding="utf-8"))
        assert meta["draws"] == 2 and meta["ks_rejection_rate"] == 0.0
        ks = np.loadtxt(out / "ks.csv", delimiter=",", skiprows=1)
        assert ks.shape == (64, 4) and not ks[:, 3].any()
        assert set(ks[:, 1]) <= {0.5, 1.0}

    def test_every_subcommand_runs_on_a_sine_grid_below_the_fourier_bound(self, tmp_path):
        # 65 nodes resolve theta's 64 sine coefficients and a Brownian
        # design's J = min(2n, 64); the Fourier bound of 128 nodes rejected them
        text = (BASE.replace("kind = basis-expansion", "kind = integrated-gaussian")
                .replace("alpha = 2.0", "alpha = 2.0\ngrid_size = 65")
                .replace("n_grid = 25", "n_grid = 32,48,100").replace("reps = 5", "reps = 2")
                + "draws = 40\n")
        config, out = str(write_config(tmp_path, text)), str(tmp_path / "o")
        for command in ("simulate", "transform", "estimate", "risk", "equivalence"):
            assert main([command, "--config", config, "--out", out]) == 0, command
        assert main(["report", "--out", out]) == 0

    def test_equivalence_on_a_short_expansion(self, tmp_path):
        # J = 32 Fourier terms: the true operator is diag(lambda_1..lambda_32),
        # so the perturbation study takes its truth over those 32 coordinates
        # instead of asking the expansion for 64 eigenpairs
        text = (BASE.replace("alpha = 2.0", "alpha = 2.0\nj_truncation = 32")
                .replace("n_grid = 25", "n_grid = 16,24,32").replace("reps = 5", "reps = 2")
                + "draws = 40\n")
        out = tmp_path / "o"
        assert main(["equivalence", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        delta = np.loadtxt(out / "delta.csv", delimiter=",", skiprows=1)
        assert delta.shape[0] == 3 and np.all(np.isfinite(delta))

    def test_linear_algebra_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, yet it is a numerical failure; eigh
        # fails in the perturbation study, after ks.csv has been written
        out = tmp_path / "o"
        eigh, failed = np.linalg.eigh, []

        def failing(*args, **kwargs):
            if (out / "ks.csv").exists():
                failed.append(True)
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        path = write_config(tmp_path, BASE.replace("n_grid = 25", "n_grid = 25,50")
                            + "draws = 40\n")
        rc = main(["equivalence", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and failed
        assert "numerical failure: Eigenvalues did not converge" in err
        assert "config error" not in err
        assert not any(out.iterdir()), "partial outputs must be removed"

    @pytest.mark.parametrize("alpha, beta, seed", [(3.5, 4.0, 7), (4.0, 4.0, 7), (4.0, 4.0, 11),
                                                   (5.0, 4.0, 7), (5.0, 4.0, 11)])
    def test_steep_spectra_transform(self, tmp_path, alpha, beta, seed):
        # full-rank basis designs whiten at machine precision, however steep
        # their spectrum
        text = (BASE.replace("alpha = 2.0", f"alpha = {alpha}")
                .replace("beta = 2.0", f"beta = {beta}")
                .replace("n_grid = 25", "n_grid = 100")
                .replace("seed = 7", f"seed = {seed}") + "draws = 50\n")
        path, out = write_config(tmp_path, text), tmp_path / "o"
        for sub in ("simulate", "transform", "equivalence"):
            assert main([sub, "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "transform.json").read_text())
        y = read_responses(out / "responses.csv")
        assert meta["orthogonality_defect"] <= 1e-13
        assert meta["roundtrip_max_error"] <= 1e-12 * np.max(np.abs(y))
        cond = json.loads((out / "simulate.json").read_text())["condition_x"]
        assert (cond["gram_rank"], cond["full_rank"]) == (100, True)

    def test_transform_failures_say_why(self, tmp_path, capsys, monkeypatch):
        # Brownian designs carry J = min(2n, D - 1) sine terms, so n >= D is
        # rank deficient by construction
        gaussian = BASE.replace("kind = basis-expansion", "kind = integrated-gaussian").replace(
            "alpha = 2.0", "alpha = 2.0\ngrid_size = 128").replace("n_grid = 25", "n_grid = 200")
        rc = main(["transform", "--config", str(write_config(tmp_path, gaussian, "g.ini")),
                   "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "J = 127 sine terms" in err and "n = 200" in err and "grid_size" in err
        # a spectrum steep enough falls below the rank rule
        steep = (BASE.replace("alpha = 2.0", "alpha = 7.0").replace("beta = 2.0", "beta = 5.0")
                 .replace("n_grid = 25", "n_grid = 100"))
        rc = main(["transform", "--config", str(write_config(tmp_path, steep, "s.ini")),
                   "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == 3
        assert re.search(r"numerically rank deficient: rank \d+ < n 100", err), err
        # an orthogonality check names the matrix, its defect and the tolerance
        import flrlab.equivalence

        monkeypatch.setattr(flrlab.equivalence, "ORTHOGONALITY_TOL", 1e-30)
        rc = main(["transform", "--config", str(write_config(tmp_path, BASE)),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert re.search(r"Q\^T Q is not numerically diagonal: .* is \d\.\d{3}e-\d+ > "
                         r"ORTHOGONALITY_TOL = 1e-30", err), err


class TestSubcommands:
    def test_simulate_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        for name in ("designs.csv", "designs.json", "responses.csv", "theta.csv", "simulate.json"):
            assert (out / name).exists()
        meta = json.loads((out / "simulate.json").read_text())
        assert meta["seed"] == 7 and len(meta["config_sha256"]) == 64

    def test_transform_roundtrip(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "tr"
        assert main(["transform", "--config", str(path), "--out", str(out)]) == 0
        y = np.loadtxt(out / "responses.csv", delimiter=",", skiprows=1)[:, 1]
        back = np.loadtxt(out / "responses_roundtrip.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.max(np.abs(y - back)) <= 1e-10

    def test_transform_reuses_the_data_simulate_wrote(self, tmp_path, monkeypatch):
        # simulate and transform draw one experiment: designs.json records its
        # provenance, so transform writes the data files only where they are
        # missing or from another draw, and leaves the same bytes either way
        import flrlab.cli

        written = []
        write = flrlab.cli.write_design_sample

        def counting(path, *args, **kwargs):
            written.append(path.parent.name)
            return write(path, *args, **kwargs)

        monkeypatch.setattr(flrlab.cli, "write_design_sample", counting)
        path = write_config(tmp_path, BASE)
        out, alone = tmp_path / "o", tmp_path / "alone"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "designs.json").read_text())
        assert (meta["seed"], meta["config_sha256"]) == (7, load_config(path).config_sha256)
        assert main(["transform", "--config", str(path), "--out", str(out)]) == 0
        assert written == ["o"]
        assert main(["transform", "--config", str(path), "--out", str(alone)]) == 0
        assert written == ["o", "alone"]
        for name in ("designs.csv", "designs.json", "responses.csv"):
            assert (out / name).read_bytes() == (alone / name).read_bytes(), name
        # a sidecar from another draw under the same config, seed and version
        # (the draw's code changed) vouches for nothing
        meta["responses_sha256"] = "0" * 64
        (alone / "designs.json").write_text(json.dumps(meta))
        assert main(["transform", "--config", str(path), "--out", str(alone)]) == 0
        assert written == ["o", "alone", "alone"]
        assert (alone / "designs.json").read_bytes() == (out / "designs.json").read_bytes()
        # another seed is another draw: its transform rewrites all three
        assert main(["transform", "--config", str(path), "--seed", "8", "--out", str(out)]) == 0
        assert written == ["o", "alone", "alone", "o"]
        assert json.loads((out / "designs.json").read_text())["seed"] == 8
        assert (out / "responses.csv").read_bytes() != (alone / "responses.csv").read_bytes()

    def test_failed_transform_keeps_the_data_simulate_wrote(self, tmp_path, monkeypatch):
        import flrlab.cli

        path, out = write_config(tmp_path, BASE), tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def failing(*args):
            raise ArithmeticError("the coefficients could not be written")

        monkeypatch.setattr(flrlab.cli, "write_wn_coefficients", failing)
        assert main(["transform", "--config", str(path), "--out", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_estimate_reports_plan(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "est"
        assert main(["estimate", "--config", str(path), "--out", str(out)]) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["gamma"] > 0 and plan["sharp_risk"] > 0

    def test_estimate_fits_the_data_simulate_wrote(self, tmp_path):
        # simulate and estimate draw one experiment: the library's fit to the
        # responses simulate wrote has the squared error estimate reports
        path = write_config(tmp_path, BASE)
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--config", str(path), "--out", str(sim)]) == 0
        assert main(["estimate", "--config", str(path), "--out", str(est)]) == 0
        cfg = load_config(path)
        model, n, rho = cfg.model, cfg.model.n_grid[0], cfg.estimator.rho
        sample = sample_design(model.design, n, derive_rng(cfg.seed, "design"))
        written = np.loadtxt(sim / "designs.csv", delimiter=",", skiprows=1)[:, 1:]
        np.testing.assert_allclose(written, sample.values.T, rtol=0, atol=1e-12)
        theta = sample_theta(model.theta_class, model.theta_mode, model.lambda_profile(),
                             model.sigma, n, derive_rng(cfg.seed, "theta"))
        _, weights, _ = pinsker_level(cfg.estimator, model, n, None, rho, oracle_level(model, n))
        y = read_responses(sim / "responses.csv")
        fit = flr_pinsker_fit(empirical_covariance(sample), sample.cross_moment(y), weights, rho,
                              alpha=model.alpha)
        reported = json.loads((est / "fit.json").read_text())["squared_error"]
        assert fit.squared_error(theta) == pytest.approx(reported, rel=1e-12)

    def test_estimate_solves_the_oracle_level_once(self, tmp_path, monkeypatch):
        # the least-favorable theta takes the level the plan already holds,
        # which risk.oracle_level solves for the command
        import flrlab.estimators
        import flrlab.risk
        from flrlab.estimators import pinsker_gamma_oracle

        calls = []

        def counting(*args):
            calls.append(args[3])
            return pinsker_gamma_oracle(*args)

        monkeypatch.setattr(flrlab.estimators, "pinsker_gamma_oracle", counting)
        monkeypatch.setattr(flrlab.risk, "pinsker_gamma_oracle", counting)
        path = write_config(tmp_path, BASE.replace("mode = boundary", "mode = least-favorable"))
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "est")]) == 0
        assert calls == [25]

    def test_estimate_at_large_signal_to_noise(self, tmp_path):
        # alpha = 2, beta = 2, c_theta = 50, sigma = 0.1, n = 1e5 once failed
        # the Pinsker level's absolute residual check and exited 3
        text = (BASE.replace("alpha = 2.0", "alpha = 2.0\nj_truncation = 16")
                .replace("c_theta = 1.0", "c_theta = 50.0")
                .replace("sigma = 1.0", "sigma = 0.1").replace("n_grid = 25", "n_grid = 100000"))
        out = tmp_path / "est"
        assert main(["estimate", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        assert json.loads((out / "plan.json").read_text())["gamma"] > 0

    def test_risk_outputs_and_plots(self, tmp_path):
        path = write_config(tmp_path, RISK)
        out = tmp_path / "risk"
        assert main(["risk", "--config", str(path), "--out", str(out)]) == 0
        header = (out / "risk.csv").read_text().splitlines()[0]
        assert header == "n,mise,stderr,ratio_sharp"
        assert (out / "mise_vs_n.svg").exists()
        report = json.loads((out / "risk.json").read_text())
        assert np.isfinite(report["slope"])

    def test_report_regenerates_plots(self, tmp_path):
        path = write_config(tmp_path, RISK)
        out = tmp_path / "risk"
        main(["risk", "--config", str(path), "--out", str(out)])
        (out / "mise_vs_n.svg").unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "mise_vs_n.svg").exists()

    def test_report_reproduces_the_study_plots(self, tmp_path):
        # report re-renders, from the CSVs alone, the very bytes risk and
        # equivalence plotted
        out = tmp_path / "study"
        flr = BASE.replace("n_grid = 25", "n_grid = 25,50").replace("reps = 5", "reps = 3")
        assert main(["risk", "--config", str(write_config(tmp_path, RISK, "seq.ini")),
                     "--out", str(out)]) == 0
        assert main(["equivalence", "--config", str(write_config(tmp_path, flr + "draws = 40\n")),
                     "--out", str(out)]) == 0
        plots = {p.name: p.read_bytes() for p in out.glob("*.svg")}
        assert sorted(plots) == ["delta_vs_n.svg", "mise_vs_n.svg", "ratio_vs_n.svg"]
        for name in plots:
            (out / name).unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.glob("*.svg")} == plots

    def test_report_without_inputs_fails(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(path), "--out", str(out1)])
        main(["simulate", "--config", str(path), "--seed", "8", "--out", str(out2)])
        a = (out1 / "responses.csv").read_text()
        b = (out2 / "responses.csv").read_text()
        assert a != b


class TestDeterminism:
    def test_every_subcommand_is_byte_stable(self, tmp_path):
        cfg_flr = write_config(tmp_path, BASE, "flr.ini")
        cfg_seq = write_config(tmp_path, RISK, "seq.ini")
        jobs = [
            ("simulate", cfg_flr),
            ("transform", cfg_flr),
            ("estimate", cfg_flr),
            ("risk", cfg_seq),
            ("equivalence", cfg_flr),
        ]
        for name, cfg in jobs:
            out1 = tmp_path / f"{name}1"
            out2 = tmp_path / f"{name}2"
            assert main([name, "--config", str(cfg), "--out", str(out1)]) == 0
            assert main([name, "--config", str(cfg), "--out", str(out2)]) == 0
            files1 = sorted(p.name for p in out1.iterdir())
            files2 = sorted(p.name for p in out2.iterdir())
            assert files1 == files2
            for f in files1:
                assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f"{name}/{f}"


class TestCsvSchema:
    def test_schema_lists_exactly_what_the_subcommands_write(self, tmp_path):
        # every CSV a subcommand writes is in the schema with its columns, in
        # order, and the schema lists nothing else; "x1..xn" stands for n columns
        import flrlab

        schema = json.loads((Path(flrlab.__file__).parent / "data" / "csv_schema.json")
                            .read_text(encoding="utf-8"))
        cfg_flr = write_config(tmp_path, BASE, "flr.ini")
        cfg_seq = write_config(tmp_path, RISK, "seq.ini")
        n = load_config(cfg_flr).model.n_grid[0]
        out = tmp_path / "all"
        for name, cfg in (("simulate", cfg_flr), ("transform", cfg_flr), ("estimate", cfg_flr),
                          ("risk", cfg_seq), ("equivalence", cfg_flr)):
            assert main([name, "--config", str(cfg), "--out", str(out)]) == 0
        written = {p.name: p.read_text(encoding="utf-8").splitlines()[0].split(",")
                   for p in out.glob("*.csv")}
        assert sorted(written) == sorted(schema)
        for name, header in written.items():
            expected = []
            for column in schema[name]:
                if column == "x1..xn":
                    expected += [f"x{i}" for i in range(1, n + 1)]
                else:
                    expected.append(column)
            assert header == expected, name


# Integrated-Gaussian designs on the default grid: n = 256 takes J = 512 sine
# terms, so the transform and the fit solve a 256 x 256 dual eigenproblem,
# large enough for OpenBLAS to split it over its threads.
BROWNIAN = (BASE.replace("kind = basis-expansion", "kind = integrated-gaussian")
            .replace("n_grid = 25", "n_grid = 256,512"))


@needs_openblas
class TestOneBlasThread:
    """Every subcommand runs with OpenBLAS held at one thread, whatever count
    the process started with, and the counts come back when main returns."""

    @pytest.mark.parametrize("failure, code", [
        (None, 0),
        (ConfigError("rejected"), 2),
        (np.linalg.LinAlgError("Eigenvalues did not converge"), 3),
    ], ids=["success", "config-error", "numerical-failure"])
    def test_subcommand_runs_on_one_thread(self, tmp_path, monkeypatch, two_blas_threads,
                                           failure, code):
        import flrlab.cli

        seen, covariance = [], flrlab.cli.empirical_covariance

        def record(sample):
            seen.append(blas_counts())
            if failure is not None:
                raise failure
            return covariance(sample)

        monkeypatch.setattr(flrlab.cli, "empirical_covariance", record)
        path = write_config(tmp_path, BASE)
        assert main(["transform", "--config", str(path), "--out", str(tmp_path / "o")]) == code
        assert seen == [[1] * len(CONTROLS)]
        assert blas_counts() == [2] * len(CONTROLS)

    def test_report_runs_on_one_thread(self, tmp_path, monkeypatch, two_blas_threads):
        import flrlab.cli

        seen = []
        monkeypatch.setattr(flrlab.cli, "line_plot", lambda *a, **k: seen.append(blas_counts()))
        (tmp_path / "risk.csv").write_text("n,mise,stderr\n100,1.0,0.1\n200,0.5,0.05\n")
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert seen == [[1] * len(CONTROLS)]
        assert main(["report", "--out", str(tmp_path / "empty")]) == 2
        assert blas_counts() == [2] * len(CONTROLS)

    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path,
                                                               two_blas_threads):
        path = write_config(tmp_path, BROWNIAN)
        written = []
        for threads in (2, 1):
            for c in CONTROLS:
                c.set(threads)
            out = tmp_path / f"blas-{threads}"
            for command in ("transform", "estimate"):
                assert main([command, "--config", str(path), "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0].keys() == written[1].keys()
        assert [name for name in written[0] if written[0][name] != written[1][name]] == []
