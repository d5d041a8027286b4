import json
import tracemalloc
from pathlib import Path

import pytest

from mrbsde import ConfigError, NotConverged, ParseError, TimeGrid, simulate_forward
from mrbsde import cli
from mrbsde.cli import build_config, main, parse_config, run_experiment, write_atomic

TINY = {
    "preset": "SINE",
    "numerics": {"M": 1500, "N": 24},
    "schedule": {"n_levels": [25, 50, 100, 200], "k_levels": [8, 16], "deficit_tol": 0.05,
                 "cauchy_tol": 0.02},
    "seed": 7,
    "output": "",
}


def tiny_doc(outdir, **overrides):
    doc = json.loads(json.dumps(TINY))
    doc.update(overrides)
    doc["output"] = str(outdir)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_preset_expands_fully(self):
        cfg = build_config({"preset": "SINE"})
        assert cfg.M == 20000 and cfg.N == 100
        assert cfg.seed == 7
        assert cfg.basis.kind == "brownian" and cfg.basis.degree == 2
        assert cfg.quad_points == 64
        assert cfg.schedule.n_levels == (25, 50, 100, 200, 400, 800)
        assert cfg.spec.obstacle.amplitude == 0.5

    def test_unknown_key_is_named(self):
        bad = {"preset": "SINE", "schedule": {"penalty_stlye": 3}}
        with pytest.raises(ParseError, match="penalty_stlye"):
            build_config(bad)

    def test_unknown_problem_key_is_named(self):
        bad = {"preset": "SINE", "problem": {"driver": {"familly": "zero"}}}
        with pytest.raises(ParseError, match="familly"):
            build_config(bad)

    def test_too_few_particles(self):
        with pytest.raises(ConfigError, match="M must be >= 2"):
            build_config({"preset": "SINE", "numerics": {"M": 1}})

    def test_preset_section_overrides_merge(self):
        cfg = build_config({"preset": "SINE", "numerics": {"M": 500}})
        assert cfg.M == 500
        assert cfg.N == 100  # untouched preset leaf survives

    def test_missing_sections_without_preset(self):
        with pytest.raises(ParseError, match="problem"):
            build_config({"numerics": {"M": 10, "N": 10, "basis": "brownian"}})

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"preset": "SINE",}', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            parse_config(path)

    def test_parse_config_round_trip(self, tmp_path):
        path = write_doc(tmp_path, tiny_doc(tmp_path / "out"))
        cfg = parse_config(path)
        assert cfg.M == 1500
        assert cfg.output == str(tmp_path / "out")

    @pytest.mark.parametrize("preset", ["COSINE", ["SINE"], {"name": "SINE"}], ids=["name", "list", "object"])
    def test_unknown_preset(self, preset):
        with pytest.raises(ParseError, match="unknown preset"):
            build_config({"preset": preset})

    def test_hard_problem_error_surfaces(self, tmp_path):
        bad = {"preset": "SINE", "problem": {"boundary": {"family": "zero", "beta": 0.5}},
               "output": str(tmp_path / "run")}
        cfg = build_config(bad)  # construction is permissive
        with pytest.raises(ConfigError, match="beta"):
            run_experiment(cfg, "solve")

    def test_forward_basis_requires_forward_sde(self):
        with pytest.raises(ConfigError, match="forward"):
            build_config({"preset": "SINE", "numerics": {"basis": "forward"}})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("problem", "horizon", float("nan")),
            ("numerics", "M", float("inf")),
            (None, "seed", float("nan")),
            (None, "seed", -1),
            (None, "seed", 2**64),
            ("schedule", "deficit_tol", float("nan")),
            ("schedule", "k_levels", [8.7]),
            ("schedule", "k_levels", ["a"]),
            ("schedule", "n_levels", ["25", "50"]),
            ("schedule", "n_levels", [True]),
            ("problem", "driver", {"family": "affine", "coefficients": {"mean_y": float("nan")}}),
            ("problem", "driver", {"family": ["zero"]}),
        ],
    )
    def test_non_finite_or_mistyped_number_is_a_parse_error(self, tmp_path, section, key, value):
        doc = tiny_doc(tmp_path / "out")
        (doc.setdefault(section, {}) if section else doc)[key] = value
        path = write_doc(tmp_path, doc)  # json.dumps writes NaN and Infinity literals
        with pytest.raises(ParseError, match=key):
            parse_config(path)
        assert main(["solve", "--config", str(path)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "levels, message",
        [({"n_levels": [-5, 25]}, "n must be >= 0"), ({"k_levels": [0, 8]}, "k must be >= 1")],
    )
    def test_out_of_range_level_is_rejected(self, levels, message):
        schedule = dict(TINY["schedule"], **levels)
        with pytest.raises(ParseError, match=message):
            build_config({"preset": "SINE", "schedule": schedule})

    def test_negative_tolerance_fails_before_any_pass(self, tmp_path):
        doc = tiny_doc(tmp_path / "out")
        doc["schedule"]["deficit_tol"] = -0.5
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match="deficit_tol"):
            parse_config(path)
        assert main(["solve", "--config", str(path)]) == 1
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ParseError, match="cannot read config"):
            parse_config(path)

    def test_fewer_particles_than_basis_functions(self):
        with pytest.raises(ConfigError, match="41 regression basis functions"):
            build_config({"preset": "SINE", "numerics": {"M": 20, "degree": 40}})


class TestRunExperiment:
    def test_solve_emits_all_artifacts(self, tmp_path):
        cfg = build_config(tiny_doc(tmp_path / "run"))
        diagnostics = run_experiment(cfg, "solve")
        out = Path(cfg.output)
        assert (out / "mean_path.csv").exists()
        assert (out / "convergence.csv").exists()
        assert (out / "report.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["status"] == "ok"
        assert report["manifest"]["seed"] == 7
        assert "threads" not in report["manifest"]["config"]
        assert "output" not in report["manifest"]["config"]
        header = (out / "mean_path.csv").read_bytes().split(b"\n")[0].decode()
        assert header == "t,mean_Y,mean_Z_1,u,u_k,K,flatness_cum"
        assert diagnostics["final_level"]["k"] == 16
        assert json.loads(json.dumps(diagnostics)) == report["diagnostics"]

    def test_rerun_is_byte_identical_outside_wall_ms(self, tmp_path):
        cfg_a = build_config(tiny_doc(tmp_path / "a"))
        cfg_b = build_config(tiny_doc(tmp_path / "b"))
        run_experiment(cfg_a, "solve")
        run_experiment(cfg_b, "solve")
        assert (tmp_path / "a" / "mean_path.csv").read_bytes() == (
            tmp_path / "b" / "mean_path.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

        def strip_wall(path):
            lines = path.read_bytes().decode().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(tmp_path / "a" / "convergence.csv") == strip_wall(
            tmp_path / "b" / "convergence.csv"
        )

    def test_oracle_check_reports_gaps(self, tmp_path):
        cfg = build_config(tiny_doc(tmp_path / "run"))
        diagnostics = run_experiment(cfg, "oracle-check")
        assert diagnostics["oracle"]["kind"] == "running-maximum closed form"
        assert diagnostics["oracle"]["mean_gap"] < 0.1

    def test_oracle_check_without_a_reference_fails_before_the_solve(self, tmp_path):
        doc = tiny_doc(tmp_path / "run")
        driver = {"family": "bounded-nonlinear", "coefficients": {"sin_y": 0.2, "cos_my": 0.1}, "lipschitz_L_f": 1.0}
        doc["problem"] = {"driver": driver}
        with pytest.raises(ConfigError, match="mean-closed"):
            run_experiment(build_config(doc), "oracle-check")
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["manifest"]["status"] == "failed"
        assert list(report["diagnostics"]) == ["validation"]
        assert sorted(path.name for path in (tmp_path / "run").iterdir()) == ["report.json"]

    def test_curve_clock_tracing_the_linear_clock_matches_it(self, tmp_path):
        # A curve clock through (0, 0), (0.5, 0.5), (1, 1) is the rate-1 linear
        # clock, so the particle cloud and the oracle must both read it identically.
        clocks = {
            "linear": {"family": "linear", "rate": 1.0},
            "curve": {"family": "curve", "knots_t": [0.0, 0.5, 1.0], "knots_v": [0.0, 0.5, 1.0]},
        }
        for name, kappa in clocks.items():
            doc = {"preset": "BOUNDARY", "numerics": {"M": 2000, "N": 20}, "problem": {"kappa": kappa},
                   "output": str(tmp_path / name)}
            run_experiment(build_config(doc), "oracle-check")
        linear, curve = tmp_path / "linear", tmp_path / "curve"
        assert (curve / "mean_path.csv").read_bytes() == (linear / "mean_path.csv").read_bytes()
        oracle = [json.loads((run / "report.json").read_text())["diagnostics"]["oracle"] for run in (linear, curve)]
        assert oracle[0] == oracle[1]
        assert oracle[0]["kind"] == "self-refined penalized mean equation"

    def test_oracle_check_sine_at_full_budget(self, tmp_path):
        doc = {
            "preset": "SINE",
            "schedule": {"n_levels": [1000], "k_levels": [50], "deficit_tol": 0.02,
                         "cauchy_tol": 0.004},
            "output": str(tmp_path / "full"),
        }
        cfg = build_config(doc)
        diagnostics = run_experiment(cfg, "oracle-check")
        assert diagnostics["oracle"]["mean_gap"] <= 0.02
        assert diagnostics["oracle"]["K_gap"] <= 0.02

    def test_rates_emits_slopes(self, tmp_path):
        cfg = build_config(tiny_doc(tmp_path / "run"))
        diagnostics = run_experiment(cfg, "rates")
        rates = diagnostics["rates"]
        assert rates["sup_neg_sq"]["slope"] is not None
        conv = (Path(cfg.output) / "convergence.csv").read_text()
        assert len(conv.strip().splitlines()) == 1 + 4  # header + one row per level

    def test_rates_default_ladder_has_six_rows(self, tmp_path):
        doc = tiny_doc(tmp_path / "run")
        del doc["schedule"]  # fall back to the preset's six-level ladder
        cfg = build_config(doc)
        run_experiment(cfg, "rates")
        conv = (tmp_path / "run" / "convergence.csv").read_text()
        assert len(conv.strip().splitlines()) == 1 + 6

    def test_stability_table(self, tmp_path):
        cfg = build_config(tiny_doc(tmp_path / "run"))
        diagnostics = run_experiment(cfg, "stability")
        rows = diagnostics["stability"]["rows"]
        assert [r["epsilon"] for r in rows] == [0.025, 0.05, 0.1]
        assert 1.5 <= diagnostics["stability"]["slope"] <= 2.5

    def test_forward_payoff_problem_end_to_end(self, tmp_path):
        doc = {
            "problem": {
                "driver": {"family": "zero", "lipschitz_L_f": 0.0},
                "boundary": {"family": "zero", "beta": -1.0},
                "terminal": {"mode": "functional-of-forward", "payoff": "call", "strike": 1.0},
                "obstacle": {"family": "constant", "value": -5.0},
                "kappa": {"family": "integral", "h_kind": "abs", "h_scale": 0.5},
                "brownian_dim": 1,
                "horizon": 1.0,
                "forward": {"x0": 1.0, "drift_const": 0.05, "drift_lin": 0.0, "sigma": 0.4},
            },
            "numerics": {"M": 3000, "N": 24, "basis": "forward", "degree": 2},
            "schedule": {"n_levels": [25, 50], "k_levels": [8], "deficit_tol": 0.05,
                         "cauchy_tol": 0.02},
            "seed": 5,
            "output": str(tmp_path / "fwd"),
        }
        cfg = build_config(doc)
        diagnostics = run_experiment(cfg, "solve")
        report = json.loads((tmp_path / "fwd" / "report.json").read_text())
        assert report["manifest"]["status"] == "ok"
        assert abs(diagnostics["K_T"]) <= 1e-9  # obstacle far below the mean
        mean_path = (tmp_path / "fwd" / "mean_path.csv").read_text().splitlines()
        assert len(mean_path) == 1 + 25

    def test_two_dimensional_mean_path_columns(self, tmp_path):
        doc = tiny_doc(tmp_path / "d2")
        doc["problem"] = {"brownian_dim": 2}
        cfg = build_config(doc)
        run_experiment(cfg, "solve")
        header = (tmp_path / "d2" / "mean_path.csv").read_text().splitlines()[0]
        assert header == "t,mean_Y,mean_Z_1,mean_Z_2,u,u_k,K,flatness_cum"

    def test_not_converged_writes_failed_manifest(self, tmp_path):
        doc = tiny_doc(tmp_path / "run")
        doc["schedule"] = {"n_levels": [25], "k_levels": [8], "deficit_tol": 1e-9,
                           "cauchy_tol": 1e-9}
        cfg = build_config(doc)
        with pytest.raises(NotConverged) as excinfo:
            run_experiment(cfg, "solve")
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["manifest"]["status"] == "failed"
        assert "penalty ladder exhausted" in report["manifest"]["error"]
        last = excinfo.value.trace[-1]
        assert report["manifest"]["error"] == (
            f"penalty ladder exhausted at k=8: last level n=25 has sup deficit {last.sup_deficit:.3g} "
            "(deficit_tol 1e-09) and Cauchy distance none (cauchy_tol 1e-09)"
        )
        assert (tmp_path / "run" / "convergence.csv").exists()
        assert not (tmp_path / "run" / "mean_path.csv").exists()

    def test_unexpected_error_writes_failed_manifest(self, tmp_path, monkeypatch):
        def broken_simulation(*args, **kwargs):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(cli, "simulate_forward", broken_simulation)
        cfg = build_config(tiny_doc(tmp_path / "run"))
        with pytest.raises(RuntimeError):
            run_experiment(cfg, "solve")
        manifest = json.loads((tmp_path / "run" / "report.json").read_text())["manifest"]
        assert manifest["status"] == "failed"
        assert manifest["error"] == "RuntimeError: simulated crash"

    def test_a_warm_solve_holds_less_than_one_solution_array(self, tmp_path, monkeypatch):
        cfg = build_config({"preset": "BOUNDARY", "numerics": {"M": 4000, "N": 50}, "output": str(tmp_path)})
        grid = TimeGrid(cfg.spec.horizon, cfg.N)
        cloud = simulate_forward(cfg.spec, grid, cfg.M, cfg.seed)
        monkeypatch.setattr(cli, "simulate_forward", lambda *args: cloud)  # the cloud is built untraced
        run_experiment(cfg, "solve")  # fills the Gram cache
        tracemalloc.start()
        try:
            run_experiment(cfg, "solve")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (grid.N + 1) * cfg.M * 8

    def test_rates_and_solve_share_the_level_ladder(self, tmp_path):
        # Tolerances no level can meet: solve records every level, then fails.
        schedule = {"n_levels": [25, 50, 100], "k_levels": [8], "deficit_tol": 1e-12,
                    "cauchy_tol": 1e-12}
        run_experiment(build_config(tiny_doc(tmp_path / "rates", schedule=schedule)), "rates")
        with pytest.raises(NotConverged) as excinfo:
            run_experiment(build_config(tiny_doc(tmp_path / "solve", schedule=schedule)), "solve")
        last = excinfo.value.trace[-1]
        assert str(excinfo.value).endswith(
            f"n=100 has sup deficit {last.sup_deficit:.3g} (deficit_tol 1e-12) and Cauchy "
            f"distance {last.cauchy_mean_dist:.3g} (cauchy_tol 1e-12)"
        )

        def rows_without_wall_ms(outdir):
            lines = (outdir / "convergence.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        rates_rows = rows_without_wall_ms(tmp_path / "rates")
        assert len(rates_rows) == 1 + 3
        assert rates_rows == rows_without_wall_ms(tmp_path / "solve")


class TestMainEntry:
    def test_solve_exit_zero(self, tmp_path):
        path = write_doc(tmp_path, tiny_doc(tmp_path / "out"))
        assert main(["solve", "--config", str(path)]) == 0

    def test_preset_flag_with_overrides(self, tmp_path):
        rc = main(
            ["solve", "--preset", "SINE", "--seed", "9", "--out", str(tmp_path / "p"),
             "--config", str(write_doc(tmp_path, {"numerics": {"M": 800, "N": 16},
                                                  "schedule": {"n_levels": [25, 50],
                                                               "k_levels": [8],
                                                               "deficit_tol": 0.1,
                                                               "cauchy_tol": 0.05}}))]
        )
        assert rc == 0
        report = json.loads((tmp_path / "p" / "report.json").read_text())
        assert report["manifest"]["seed"] == 9
        assert report["manifest"]["preset"] == "SINE"

    def test_not_converged_exit_two(self, tmp_path):
        doc = tiny_doc(tmp_path / "out")
        doc["schedule"] = {"n_levels": [25], "k_levels": [8], "deficit_tol": 1e-9,
                           "cauchy_tol": 1e-9}
        path = write_doc(tmp_path, doc)
        assert main(["solve", "--config", str(path)]) == 2

    def test_parse_error_exit_one(self, tmp_path):
        path = write_doc(tmp_path, {"preset": "SINE", "schedule": {"penalty_stlye": 1}})
        assert main(["solve", "--config", str(path)]) == 1

    def test_missing_config_and_preset(self):
        assert main(["solve"]) == 1

    def test_threads_do_not_change_artifacts(self, tmp_path):
        base = tiny_doc(tmp_path / "t1")
        path = write_doc(tmp_path, base)
        assert main(["solve", "--config", str(path), "--threads", "1",
                     "--out", str(tmp_path / "t1")]) == 0
        assert main(["solve", "--config", str(path), "--threads", "4",
                     "--out", str(tmp_path / "t4")]) == 0
        assert (tmp_path / "t1" / "mean_path.csv").read_bytes() == (
            tmp_path / "t4" / "mean_path.csv"
        ).read_bytes()
        assert (tmp_path / "t1" / "report.json").read_bytes() == (
            tmp_path / "t4" / "report.json"
        ).read_bytes()


class TestWriteAtomic:
    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "table.csv"
        write_atomic(target, b"a,b\n1,2\n")
        assert target.read_bytes() == b"a,b\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_overwrites_previous_content(self, tmp_path):
        target = tmp_path / "table.csv"
        write_atomic(target, b"old\n")
        write_atomic(target, b"new\n")
        assert target.read_bytes() == b"new\n"
