"""Batch harness and CLI tests: suite runs, reports, studies, precedence."""

from __future__ import annotations

import dataclasses
import json
import logging
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from eigsurgery import cli, harness, surgery
from eigsurgery.cli import main
from eigsurgery.corpus import CorpusSpec, generate
from eigsurgery.domain import GridDomain, measure, save_domain
from eigsurgery.harness import (
    BATTERY_K,
    RunConfig,
    SuiteResult,
    convergence_study,
    inequality_battery,
    richardson,
    run_one,
    run_suite,
    summary_table,
    write_reports,
)
from eigsurgery.inequalities import IneqReport
from eigsurgery.pde import (
    DEFAULT_EIG_TOL,
    build_laplacian,
    eigenvalues,
    solve_raster,
    solve_torsion,
)
from eigsurgery.surgery import strip_surgery

H = 1 / 64
BALL = CorpusSpec("ball", "ball", H)
TUBE = CorpusSpec("tube", "tube", H)
# neck thinner than two cells makes the generator raise; used as a crash dummy
BROKEN = CorpusSpec("broken", "dumbbell", H, params={"neck_cells": 1})

NEGATIVE_SEED = "seed: expected a non-negative integer, got -1"
PRACTICAL = RunConfig(K=200.0, k=2, mode="practical:1e12")


def test_three_dimensional_pipeline():
    """Generate, solve on one factor, check and operate on a 3-D ball."""
    x, y, z = np.indices((15, 13, 13))
    occ = (x - 7) ** 2 + (y - 6) ** 2 + (z - 6) ** 2 <= 5.2**2
    d = GridDomain(h=occ.sum() ** (-1 / 3), origin=(0.0, 0.0, 0.0), occupancy=occ)
    assert d.cell_count > 400  # past the dense cutoff: Lanczos and the certificate
    assert measure(d) == pytest.approx(1.0, rel=1e-12)
    f, s = solve_raster(d, k=BATTERY_K)
    # lambda_2 = lambda_3 = lambda_4 by symmetry; the certificate holds them all
    assert s.inertia_count == sum(v < s.shift for v in s.eigenvalues) == 4
    dense = scipy.linalg.eigvalsh(build_laplacian(d)[0].toarray())[:BATTERY_K]
    np.testing.assert_allclose(s.eigenvalues, dense, rtol=1e-9)
    sanity, battery = inequality_battery(d, f, s)
    assert [r.name for r in sanity] == ["saint_venant", "talenti", "vdb"]
    assert len(battery) == BATTERY_K + 1
    assert all(r.passed for r in sanity + battery)
    k = 3
    _, report = strip_surgery(f, s, K=200.0, k=k, mode="practical:1e12")
    names = [c.name for c in report.checks]
    for name in ("unit_measure", "perimeter_non_increase", "diam_e1_bound"):
        assert name in names
    assert [f"eigenvalue_{i}_non_increase" for i in range(1, k + 1)] == [
        n for n in names if n.startswith("eigenvalue_")
    ]
    assert report.passed
    row = json.loads(json.dumps(report.to_dict()))
    assert len(row["after"]["spectrum"]) == k and row["verdict"] == report.verdict


class TestRunConfig:
    def test_defaults_are_faithful(self):
        config = RunConfig()
        assert config.mode == "faithful"
        assert config.workers == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"K": 0.0},
            {"k": 0},
            {"P": -1.0},
            {"K": math.nan},
            {"mode": "practical:0.5"},
            {"mode": "nonsense"},
            {"workers": 0},
            {"mode": "practical:inf"},
            {"P": math.inf},
            {"K": math.inf},
            {"seed": -1},
            {"k": 2.5},
            {"k": True},
            {"seed": 1.5},
            {"workers": 1.5},
            {"K": "200"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name}: "):
            RunConfig(**kwargs)

    def test_practical_factor_one_must_be_spelled_faithful(self):
        with pytest.raises(ValueError, match="faithful"):
            RunConfig(mode="practical:1")


class TestRunOne:
    def test_row_shape_and_pass(self):
        row = run_one(BALL, PRACTICAL)
        assert row["id"] == "ball"
        assert row["status"] == "ok"
        assert row["passed"] is True
        assert row["error"] is None
        assert len(row["sanity"]) == 3
        assert len(row["inequalities"]) == 6  # five Li-Yau orders + one ratio
        assert row["surgery"]["verdict"] in ("pass", "no-op")
        assert abs(row["geometry"]["measure"] - 1.0) < 1e-12

    def test_sanity_gate_stops_before_surgery(self, monkeypatch):
        failing = IneqReport.compare("saint_venant", 2.0, 1.0, 0.0)
        assert not failing.passed
        monkeypatch.setattr(harness, "check_saint_venant", lambda d, f: failing)
        row = run_one(BALL, PRACTICAL)
        assert row["status"] == "sanity_failed"
        assert row["surgery"] is None
        assert row["inequalities"] == []
        assert row["passed"] is False


class TestRunSuite:
    def test_empty_corpus_exits_zero(self):
        result = run_suite([], PRACTICAL)
        assert result.exit_code == 0
        assert result.rows == ()

    def test_error_rows_are_isolated(self):
        result = run_suite([BALL, BROKEN, TUBE], PRACTICAL)
        assert result.exit_code == 1
        assert [r["id"] for r in result.rows] == ["ball", "broken", "tube"]
        statuses = {r["id"]: r["status"] for r in result.rows}
        assert statuses == {"ball": "ok", "broken": "error", "tube": "ok"}
        broken = result.rows[1]
        assert "ValueError" in broken["error"]
        assert broken["passed"] is False
        # the healthy rows still ran end to end
        assert result.rows[0]["passed"] and result.rows[2]["passed"]

    def test_exit_code_is_read_from_the_rows(self):
        assert SuiteResult(rows=()).exit_code == 0
        assert SuiteResult(rows=({"passed": True},)).exit_code == 0
        assert SuiteResult(rows=({"passed": True}, {"passed": False})).exit_code == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_suite([BALL, BALL], PRACTICAL)

    def test_rows_merge_in_corpus_order_with_workers(self):
        serial = run_suite([BALL, TUBE], PRACTICAL)
        pooled = run_suite(
            [BALL, TUBE],
            RunConfig(K=200.0, k=2, mode="practical:1e12", workers=4),
        )
        assert serial.to_jsonl() == pooled.to_jsonl()

    @pytest.mark.parametrize(
        "cpus, workers, pool_size",
        [(2, 4, 2), (4, 3, 3), (1, 4, 1), (2, 1, 1)],
    )
    def test_pool_is_capped_at_the_usable_cpus(
        self, monkeypatch, cpus, workers, pool_size
    ):
        pools = []

        class RecordingPool:
            """Runs the rows serially; records the pool size it was asked for."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(
            harness,
            "_safe_run",
            lambda spec, config: {"id": spec.name, "status": "ok", "passed": True},
        )
        config = RunConfig(K=200.0, k=2, mode="practical:1e12", workers=workers)
        result = run_suite([BALL, TUBE], config)
        assert [r["id"] for r in result.rows] == ["ball", "tube"]
        assert pools == [pool_size]
        # Without affinity (macOS) the cap is every CPU.
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert run_suite([BALL, TUBE], config).exit_code == 0
        assert pools == [pool_size, pool_size]

    def test_double_run_is_byte_identical(self, tmp_path):
        specs = [BALL, TUBE]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        run_suite(specs, RunConfig(K=200.0, k=2, mode="practical:1e12",
                                   out_dir=str(out1)))
        run_suite(specs, RunConfig(K=200.0, k=2, mode="practical:1e12",
                                   out_dir=str(out2)))
        for name in ("reports.jsonl", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_jsonl_appends_and_csv_regenerates(self, tmp_path):
        result = run_suite([BALL], PRACTICAL)
        jsonl, csv_path = write_reports(result, tmp_path)
        write_reports(result, tmp_path)
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]
        rows = csv_path.read_text().splitlines()
        assert len(rows) == 3  # header + one record per appended row
        assert rows[1] == rows[2]

    @pytest.mark.parametrize(
        "lhs, rhs, want",
        [
            (math.inf, 1.0, {"lhs": "inf", "rhs": 1.0, "margin": "-inf", "tolerance": 0.0}),
            (1.0, -math.inf, {"lhs": 1.0, "rhs": "-inf", "margin": "-inf", "tolerance": 0.0}),
            (math.nan, 1.0, {"lhs": "nan", "rhs": 1.0, "margin": "nan", "tolerance": 0.0}),
        ],
    )
    def test_non_finite_check_values_dump_as_strict_json(self, lhs, rhs, want):
        check = IneqReport.compare("x", lhs, rhs, 1e-3).to_dict()
        result = SuiteResult(rows=({"id": "x", "passed": False, "inequalities": [check]},))
        line = result.to_jsonl()  # dumped with allow_nan=False
        got = json.loads(line)["inequalities"][0]
        assert {key: got[key] for key in want} == want
        assert got["pass"] is False

    def test_summary_is_built_only_for_an_info_log(self, monkeypatch, caplog):
        built = []
        monkeypatch.setattr(harness, "summary_table", lambda rows: built.append(rows) or "")
        caplog.set_level(logging.WARNING, logger=harness.logger.name)
        run_suite([], PRACTICAL)
        assert built == []
        caplog.set_level(logging.INFO, logger=harness.logger.name)
        run_suite([], PRACTICAL)
        assert built == [()]

    def test_summary_table_lists_every_domain(self):
        result = run_suite([BALL, TUBE], PRACTICAL)
        table = summary_table(result.rows)
        assert "ball" in table and "tube" in table
        assert table.splitlines()[0].startswith("id")


class TestConvergenceStudy:
    def test_node_square_extrapolates_to_second_order(self):
        spec = CorpusSpec("square", "square", H, params={"aligned": "node"})
        study = convergence_study(spec, [1 / 16, 1 / 32, 1 / 64])
        assert [row["h"] for row in study["rows"]] == [1 / 16, 1 / 32, 1 / 64]
        ex = study["extrapolation"]["lambda_1"]
        assert abs(ex["order"] - 2.0) < 0.1
        assert abs(ex["limit"] - 2 * math.pi**2) < 1e-3 * 2 * math.pi**2

    def test_single_h_gives_one_row_no_extrapolation(self):
        study = convergence_study(BALL, [H])
        assert len(study["rows"]) == 1
        assert study["extrapolation"] is None

    def test_empty_h_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            convergence_study(BALL, [])

    def test_richardson_recovers_known_order(self):
        hs = [0.4, 0.2, 0.1]
        exact, C = 7.0, 3.0
        values = [exact + C * h**2 for h in hs]
        out = richardson(hs, values)
        assert abs(out["order"] - 2.0) < 1e-12
        assert abs(out["limit"] - exact) < 1e-12

    def test_richardson_validates_input(self):
        with pytest.raises(ValueError, match="three"):
            richardson([0.2, 0.1], [1.0, 2.0])
        with pytest.raises(ValueError, match="uniform"):
            richardson([0.4, 0.2, 0.05], [1.0, 1.1, 1.11])
        with pytest.raises(ValueError, match="monotone"):
            richardson([0.4, 0.2, 0.1], [1.0, 2.0, 1.5])
        with pytest.raises(ValueError, match="order 0"):
            richardson([0.4, 0.2, 0.1], [3.0, 2.0, 1.0])


# --------------------------------------------------------------------------
# CLI


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestCli:
    def test_gen_writes_pbm_and_sidecar(self, tmp_path, capsys):
        code = main(["gen", "--spec", "ball", "--h", "1/64",
                     "--out", str(tmp_path)])
        assert code == 0
        info = _json_out(capsys)
        assert info["id"] == "ball"
        assert abs(info["measure"] - 1.0) < 1e-12
        assert (tmp_path / "ball.pbm").exists()
        assert (tmp_path / "ball.json").exists()

    def test_spectrum_from_saved_domain_matches_spec(self, tmp_path, capsys):
        assert main(["gen", "--spec", "tube", "--h", "1/64",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["spectrum", "--domain", str(tmp_path / "tube"),
                     "--k", "2"]) == 0
        from_file = _json_out(capsys)
        assert main(["spectrum", "--spec", "tube", "--h", "1/64",
                     "--k", "2"]) == 0
        from_spec = _json_out(capsys)
        assert from_file["eigenvalues"] == from_spec["eigenvalues"]

    def test_torsion_reports_energy(self, capsys):
        assert main(["torsion", "--spec", "ball", "--h", "1/64"]) == 0
        info = _json_out(capsys)
        assert info["energy"] == -0.5 * info["integral"]
        assert info["max"] > 0

    def test_torsion_out_writes_the_field(self, tmp_path, capsys):
        assert main(["torsion", "--spec", "ball", "--h", "1/32",
                     "--out", str(tmp_path)]) == 0
        info = _json_out(capsys)
        assert info["files"] == [str(tmp_path / "ball-torsion.bin"),
                                 str(tmp_path / "ball-torsion.json")]
        header = json.loads((tmp_path / "ball-torsion.json").read_text())
        f = solve_torsion(generate(CorpusSpec("ball", "ball", 1 / 32)))
        values = np.frombuffer((tmp_path / "ball-torsion.bin").read_bytes(), "<f8")
        assert np.array_equal(values.reshape(header["shape"]), f.values)
        assert header["residual"] == info["residual"] == f.residual

    def test_spectrum_out_writes_the_eigenvalues(self, tmp_path, capsys):
        assert main(["spectrum", "--spec", "ball", "--h", "1/32", "--k", "3",
                     "--out", str(tmp_path)]) == 0
        info = _json_out(capsys)
        path = tmp_path / "ball-spectrum.json"
        assert info["files"] == [str(path)]
        assert json.loads(path.read_text()) == {
            "eigenvalues": info["eigenvalues"],
            "rel_tol": DEFAULT_EIG_TOL,
            "shift": info["shift"],
            "inertia_count": info["inertia_count"],
        }

    def test_spectrum_prints_its_certificate(self, capsys):
        assert main(["spectrum", "--spec", "ball", "--h", "1/32", "--k", "3"]) == 0
        info = _json_out(capsys)
        s = eigenvalues(generate(CorpusSpec("ball", "ball", 1 / 32)), k=3)
        assert info["eigenvalues"] == list(s.eigenvalues)
        assert (info["shift"], info["inertia_count"]) == (s.shift, s.inertia_count)
        assert info["inertia_count"] == 1  # lambda_2 = lambda_3 on the disk

    @pytest.mark.parametrize("h", ["1/0", "0/0", "inf", "1/inf", "nan", "1e999"])
    def test_bad_spacing_exits_2_at_parse_time(self, monkeypatch, caplog, h):
        monkeypatch.setattr(cli, "generate", lambda spec: pytest.fail("generated"))
        assert main(["torsion", "--spec", "ball", "--h", h]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"h: expected a positive finite value, got {h!r}"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectrum", "--spec", "ball", "--k", "abc"],
             "k: invalid literal for int() with base 10: 'abc'"),
            (["check", "--corpus", "surgery", "--seed", "abc"],
             "seed: invalid literal for int() with base 10: 'abc'"),
            (["bounded-surgery", "--spec", "ball", "--K", "abc"],
             "K: could not convert string to float: 'abc'"),
            (["bounded-surgery", "--spec", "ball", "--mode", "practical:0.5"],
             "mode: practical-mode factor must be finite and above 1, got 0.5 "
             "(factor 1 is spelled mode='faithful')"),
            (["spectrum", "--spec", "ball", "--k", "0"],
             "k: expected a positive integer, got 0"),
            (["spectrum", "--spec", "ball", "--seed", "-1"], NEGATIVE_SEED),
            (["bounded-surgery", "--spec", "ball", "--seed", "-1"], NEGATIVE_SEED),
            (["check", "--corpus", "surgery", "--seed", "-1"], NEGATIVE_SEED),
            (["surgery", "--corpus", "surgery", "--seed", "-1"], NEGATIVE_SEED),
            (["gen", "--spec", "ball", "--seed", "-1"], NEGATIVE_SEED),
        ],
        ids=["spectrum-k", "check-corpus-seed", "bounded-K", "bounded-mode",
             "spectrum-k-0", "spectrum-seed-negative", "bounded-seed-negative",
             "check-corpus-seed-negative", "surgery-corpus-seed-negative",
             "gen-seed-negative"],
    )
    def test_bad_setting_exits_2_before_any_domain_is_made(
        self, monkeypatch, caplog, argv, message
    ):
        for module in (cli, harness):
            monkeypatch.setattr(module, "generate", lambda spec: pytest.fail("generated"))
        assert main([*argv, "--h", "1/16"]) == 2
        assert [r.getMessage() for r in caplog.records] == [message]

    def test_negative_seed_from_the_environment_exits_2(self, monkeypatch, caplog):
        monkeypatch.setenv("EIGSURGERY_seed", "-1")
        monkeypatch.setattr(cli, "generate", lambda spec: pytest.fail("generated"))
        assert main(["spectrum", "--spec", "ball", "--h", "1/16"]) == 2
        assert [r.getMessage() for r in caplog.records] == [NEGATIVE_SEED]

    @pytest.mark.parametrize("source", ["env", "config"])
    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("K", "inf", "K: expected a positive finite number, got inf"),
            ("k", "2.5", "k: invalid literal for int() with base 10: '2.5'"),
            ("P", "-1", "P: expected a positive finite number or None, got -1.0"),
            ("workers", "0", "workers: expected a positive integer, got 0"),
            ("mode", "practical:1",
             "mode: practical-mode factor must be finite and above 1, got 1.0 "
             "(factor 1 is spelled mode='faithful')"),
        ],
    )
    def test_bad_setting_from_env_or_config_exits_2(
        self, monkeypatch, tmp_path, caplog, source, key, text, message
    ):
        for module in (cli, harness):
            monkeypatch.setattr(module, "generate", lambda spec: pytest.fail("generated"))
        argv = ["surgery", "--spec", "tube", "--h", "1/16"]
        if source == "env":
            monkeypatch.setenv(f"EIGSURGERY_{key}", text)
        else:
            cfg = tmp_path / "eigsurgery.cfg"
            cfg.write_text(f"{key} = {text}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert [r.getMessage() for r in caplog.records] == [message]

    @pytest.mark.parametrize(
        "generator, key, text",
        [
            ("ball", "radius", "-1"),
            ("ball", "radius", "nan"),
            ("ball", "radius", "NaN"),
            ("dumbbell", "bulb_radius", "-0.4"),
            ("dumbbell", "neck_length", "-3"),
            ("tube", "width_cells", "2.5"),
            ("blob_union", "n_blobs", "0"),
            ("perforated", "holes", "-3"),
            ("perforated", "hole_radius", '"wide"'),
            ("square", "normalize", "False"),
        ],
    )
    def test_bad_generator_parameter_is_named(
        self, tmp_path, caplog, generator, key, text
    ):
        params = cli._parse_params([f"{key}={text}"])
        spec = CorpusSpec(generator, generator, 1 / 32, params=params)
        with pytest.raises(ValueError, match=rf"^{key} must be ") as exc:
            generate(spec)
        argv = ["gen", "--spec", generator, "--param", f"{key}={text}", "--h", "1/32"]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert [r.getMessage() for r in caplog.records] == [str(exc.value)]

    def test_study_without_a_spacing_exits_2(self, caplog):
        assert main(["study", "--spec", "square", "--h-list", ","]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "h_list must contain at least one grid spacing"
        ]

    def test_bad_study_spacing_is_named(self, monkeypatch, caplog):
        monkeypatch.setattr(harness, "generate", lambda spec: pytest.fail("generated"))
        assert main(["study", "--spec", "square", "--h-list", "1/64,abc"]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "h_list: could not convert string to float: 'abc'"
        ]

    def test_too_coarse_spacing_names_the_generator(self, caplog):
        assert main(["torsion", "--spec", "ball", "--h", "2"]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "ball at h = 2 has no occupied cell: h is too coarse"
        ]

    def test_study_out_writes_the_printed_study(self, tmp_path, capsys):
        assert main(["study", "--spec", "square", "--param", "aligned=node",
                     "--h-list", "1/16,1/32", "--out", str(tmp_path)]) == 0
        printed = _json_out(capsys)
        assert json.loads((tmp_path / "square-study.json").read_text()) == printed
        assert [row["h"] for row in printed["rows"]] == [1 / 16, 1 / 32]

    def test_check_single_domain_passes(self, capsys):
        assert main(["check", "--spec", "ball", "--h", "1/64"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 9  # 3 sanity + 5 Li-Yau + 1 ratio

    def test_check_corpus_prints_one_line_per_domain(self, capsys):
        assert main(["check", "--corpus", "surgery", "--h", "1/32"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert all(
            line.startswith("PASS ") and line.endswith(" (9/9 checks)")
            for line in lines[:10]
        )
        assert lines[10] == "10/10 domains passed"

    def test_surgery_single_domain(self, tmp_path, capsys):
        code = main(["surgery", "--spec", "tube", "--h", "1/64",
                     "--K", "200", "--k", "2", "--mode", "practical:1e12",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert (tmp_path / "tube-report.json").exists()
        report = json.loads((tmp_path / "tube-report.json").read_text())
        assert report["verdict"] in ("pass", "no-op")
        assert (tmp_path / "tube-after.pbm").exists()

    def test_surgery_corpus_suite(self, tmp_path, capsys):
        code = main(["surgery", "--corpus", "surgery", "--h", "1/96",
                     "--K", "200", "--k", "3", "--mode", "practical:1e12",
                     "--workers", "4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "reports.jsonl").exists()
        assert (tmp_path / "summary.csv").exists()
        table = capsys.readouterr().out
        assert "dumbbell-0" in table and "tube-3" in table

    def test_bounded_surgery_faithful_noop(self, capsys):
        # dyadic unit square: measure is exactly 1.0, so the no-op is literal
        code = main(["bounded-surgery", "--spec", "square", "--h", "1/32",
                     "--K", "100", "--k", "1"])
        assert code == 0
        assert "verdict: no-op" in capsys.readouterr().out

    def test_bounded_surgery_with_a_failed_check_exits_1(self, capsys):
        # this descent would end on one cell, fewer than k; it stops on nine,
        # where the floors fail: a failed check, not a solver error
        code = main(["bounded-surgery", "--spec", "blob_union", "--seed", "46",
                     "--h", "1/64", "--K", "100", "--k", "2",
                     "--mode", "practical:1e12"])
        assert code == 1
        assert "verdict: fail" in capsys.readouterr().out

    def test_study_single_h(self, capsys):
        assert main(["study", "--spec", "square", "--param", "aligned=node",
                     "--h-list", "1/32"]) == 0
        study = _json_out(capsys)
        assert len(study["rows"]) == 1
        assert study["extrapolation"] is None

    def test_param_values_parse_as_json(self, capsys):
        assert main(["gen", "--spec", "square", "--param", "side=0.5",
                     "--param", "normalize=true", "--h", "1/64"]) == 0
        info = _json_out(capsys)
        assert abs(info["measure"] - 1.0) < 1e-12

    def test_non_finite_practical_factor_exits_2(self, tmp_path):
        code = main(["bounded-surgery", "--spec", "blob_union", "--seed", "3",
                     "--h", "1/32", "--K", "100", "--k", "2",
                     "--mode", "practical:inf", "--out", str(tmp_path)])
        assert code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("source", [["--spec", "tube"], ["--corpus", "surgery"]])
    def test_surgery_usage_error_leaves_no_out_dir(self, tmp_path, source):
        out = tmp_path / "out"
        assert main(["surgery", *source, "--h", "1/32",
                     "--mode", "practical:inf", "--out", str(out)]) == 2
        assert not out.exists()

    def test_surgery_with_a_huge_perimeter_bound(self, capsys):
        # the mass threshold's root lies far below 1e-12 here
        assert main(["surgery", "--spec", "dumbbell", "--h", "1/32", "--K", "200",
                     "--k", "2", "--mode", "practical:1e12", "--P", "1e7"]) == 0
        assert capsys.readouterr().out.endswith("verdict: no-op\n")

    @pytest.mark.parametrize(
        "setting, message",
        [(["--K", "1e103"], "the penalty bounds overflow at K = 1e+103, k = 2"),
         (["--K", "200", "--P", "1e155"],
          "perimeter bound P = 1e+155 is too large: m_hat underflows")],
        ids=["K", "P"],
    )
    def test_an_overflowing_constant_chain_names_its_setting(
        self, caplog, setting, message
    ):
        assert main(["surgery", "--spec", "dumbbell", "--h", "1/32", *setting,
                     "--k", "2", "--mode", "practical:1e12"]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [message]

    @pytest.mark.parametrize(
        "flag", ["--k-power", "--r0-fraction", "--eig-tol", "--r0"]
    )
    def test_removed_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["surgery", "--spec", "tube", "--h", "1/64", flag, "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["k_power", "r0_fraction", "eig_tol", "r0"])
    def test_removed_config_keys_exit_2(self, tmp_path, key):
        cfg = tmp_path / "eigsurgery.cfg"
        cfg.write_text(f"{key} = 2\n")
        assert main(["surgery", "--spec", "tube", "--h", "1/64",
                     "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["surgery", "--corpus", "surgery", "--K", "200", "--k", "2", "--P", "inf"],
            ["surgery", "--corpus", "surgery", "--K", "inf", "--k", "2"],
            ["surgery", "--spec", "tube", "--K", "200", "--k", "2",
             "--mode", "practical:0.5"],
            ["surgery", "--spec", "tube", "--K", "200", "--k", "2",
             "--mode", "practical:1"],
            ["bounded-surgery", "--spec", "blob_union", "--K", "100", "--k", "2",
             "--mode", "practical:0.5"],
        ],
        ids=["corpus-P-inf", "corpus-K-inf", "spec-practical-0.5",
             "spec-practical-1", "bounded-practical-0.5"],
    )
    def test_bad_setting_exits_2_on_every_path(self, argv, monkeypatch):
        solved = []
        for module, name in ((cli, "solve_raster"), (surgery, "factored_torsion")):
            monkeypatch.setattr(module, name, lambda d, **kw: solved.append(d))
        assert main([*argv, "--h", "1/32"]) == 2
        assert solved == []  # rejected before any solve

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--spec", "ball", "--param", "bogus=1"],
            ["torsion", "--spec", "ball", "--param", "radius=abc"],
        ],
        ids=["gen-unknown-param", "torsion-bad-param-value"],
    )
    def test_bad_generator_parameter_exits_2(self, argv, caplog):
        assert main([*argv, "--h", "1/16"]) == 2
        assert [r.levelname for r in caplog.records] == ["ERROR"]

    def test_debug_log_keeps_the_traceback(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="eigsurgery.cli"):
            assert main(["torsion", "--spec", "ball", "--param", "radius=abc",
                         "--h", "1/16"]) == 2
        assert caplog.records[-1].exc_info[0] is ValueError  # radius is not a number

    def test_unknown_generator_exits_2(self, capsys):
        assert main(["gen", "--spec", "pentagon", "--h", "1/64"]) == 2

    @pytest.mark.parametrize("command", ["check", "surgery"])
    @pytest.mark.parametrize(
        "source",
        [["--spec", "ball"], ["--domain", "missing-domain"],
         ["--param", "radius=0.5"], ["--name", "mine"]],
        ids=["spec", "domain", "param", "name"],
    )
    def test_corpus_with_a_domain_source_exits_2(self, monkeypatch, command, source):
        calls = []
        for name in ("run_suite", "solve_raster"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(a))
        assert main([command, "--corpus", "surgery", *source, "--h", "1/16"]) == 2
        assert calls == []  # rejected before any corpus member is solved

    def test_both_spec_and_domain_exits_2(self, tmp_path):
        save_domain(generate(BALL), tmp_path / "d")
        assert main(["gen", "--spec", "ball",
                     "--domain", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize(
        "solver, command, exc",
        [
            ("solve_torsion", "torsion",
             RuntimeError("torsion solve did not converge within 1000 iterations")),
            ("eigenvalues", "spectrum",
             ArpackNoConvergence("ARPACK did not converge", [], [])),
        ],
    )
    def test_solver_failure_exits_2(self, monkeypatch, caplog, solver, command, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, solver, fail)
        assert main([command, "--spec", "ball", "--h", "1/16"]) == 2
        assert [r.getMessage() for r in caplog.records] == [str(exc)]


class TestCliPrecedence:
    """--flag beats EIGSURGERY_<name> beats --config file beats default."""

    def test_settings_are_the_run_config_fields_and_h(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(cli._SETTINGS) == fields - {"out_dir"} | {"out", "h"}
        for name, *_ in cli._COMMANDS:
            args = cli.build_parser().parse_args([name, "--spec", "ball"])
            cli._resolve_settings(args)
            assert args.run == RunConfig()
            assert args.h == cli.DEFAULT_H
        args = cli.build_parser().parse_args(
            ["surgery", "--spec", "ball", "--K", "200", "--k", "2", "--P", "5",
             "--h", "1/32", "--seed", "4", "--mode", "practical:1e6",
             "--workers", "2", "--out", "reports"]
        )
        cli._resolve_settings(args)
        assert args.run == RunConfig(
            K=200.0, k=2, P=5.0, mode="practical:1e6", seed=4, workers=2,
            out_dir="reports",
        )
        assert args.h == 1 / 32

    def _gen_h(self, capsys, *argv):
        # cell-aligned square keeps its spacing (no unit-measure rescale)
        assert main(["gen", "--spec", "square", *argv]) == 0
        return _json_out(capsys)["h"]

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("EIGSURGERY_h", "1/16")
        assert self._gen_h(capsys, "--h", "1/32") == 1 / 32

    def test_env_beats_config(self, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "eigsurgery.cfg"
        cfg.write_text("h = 1/8  # coarse\n")
        monkeypatch.setenv("EIGSURGERY_h", "1/16")
        assert self._gen_h(capsys, "--config", str(cfg)) == 1 / 16

    def test_config_beats_default(self, tmp_path, capsys):
        cfg = tmp_path / "eigsurgery.cfg"
        cfg.write_text("h = 1/8\n")
        assert self._gen_h(capsys, "--config", str(cfg)) == 1 / 8

    def test_default_h(self, capsys):
        assert self._gen_h(capsys) == 1 / 256

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("resolution = 1/8\n")
        assert main(["gen", "--spec", "square", "--config", str(cfg)]) == 2

    def test_unknown_env_setting_exits_2(self, monkeypatch):
        monkeypatch.setenv("EIGSURGERY_k_power", "2")
        assert main(["torsion", "--spec", "ball", "--h", "1/16"]) == 2

    def test_removed_eig_tol_env_setting_exits_2(self, monkeypatch):
        monkeypatch.setenv("EIGSURGERY_eig_tol", "1e-8")
        assert main(["spectrum", "--spec", "ball", "--h", "1/16"]) == 2

    def test_removed_r0_env_setting_exits_2(self, monkeypatch):
        monkeypatch.setenv("EIGSURGERY_r0", "0.2")
        assert main(["surgery", "--spec", "tube", "--h", "1/32"]) == 2

    def test_fraction_flags_accept_decimals(self, capsys):
        assert self._gen_h(capsys, "--h", "0.125") == 0.125
