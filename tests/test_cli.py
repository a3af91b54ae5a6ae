"""End-to-end CLI behavior: outputs, exit codes, determinism, workers."""

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import pytest

import jsqlab
from jsqlab import ConfigError, FixedPointControls, NetworkConfig, cli, make_spec, pair_dependence, run_replication
from jsqlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from jsqlab.config import echo, read_config
from jsqlab.service_dist import KINDS
from jsqlab.tails import read_tail_csv

SIM_ARGS = [
    "simulate", "--n-queues", "20", "--d-choices", "2", "--alpha", "0.5",
    "--service", "exponential", "--horizon", "250", "--seed", "4",
]
CAV_ARGS = [
    "cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential",
    "--k-max", "12", "--cycles", "15000", "--seed", "3",
]
NET_DOC = {"mode": "network", "N": 10, "D": 2, "alpha": 0.5, "service": {"kind": "exponential"},
           "horizon": 60, "seed": 2}
NET_CONFIG = NetworkConfig(N=10, D=2, alpha=0.5, service=make_spec("exponential"), horizon=60.0, seed=2)
CAV_DOC = {"mode": "cavity", "D": 2, "alpha": 0.5, "service": {"kind": "exponential"},
           "k_max": 8, "cycles_per_iter": 2000, "max_iter": 1, "seed": 3}


SMALL_CAV_ARGS = [
    "cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential",
    "--k-max", "8", "--cycles", "2000", "--max-iter", "1", "--seed", "3",
]


def run_doc(tmp_path, command, doc, out, *flags):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main([command, "--config", str(path), *flags, "--out", str(out)])


class TestConfigDocuments:
    def test_clean_documents_run(self, tmp_path):
        assert run_doc(tmp_path, "simulate", NET_DOC, tmp_path / "net") == EXIT_OK
        assert run_doc(tmp_path, "cavity", CAV_DOC, tmp_path / "cav") == EXIT_OK

    @pytest.mark.parametrize("command, base, key, value", [
        ("simulate", NET_DOC, "n_batch", 40),  # misspelt n_batches
        ("cavity", CAV_DOC, "cycles", 2000),  # the flag name, not the field name
        ("simulate", NET_DOC, "horizon", "60"),
        ("cavity", CAV_DOC, "D", 2.5),
        ("cavity", CAV_DOC, "alpha", "0.5"),
        ("cavity", CAV_DOC, "max_iter", True),
        ("simulate", NET_DOC, "replications", "2"),
        ("simulate", NET_DOC, "pair_level", 1.5),
        ("simulate", NET_DOC, "k_max", None),
        ("simulate", NET_DOC, "horizon", math.inf),  # written as Infinity
        pytest.param("cavity", CAV_DOC, "alpha", int("9" * 400), id="cavity-alpha-too-large-for-a-float"),
        ("cavity", CAV_DOC, "service", {"kind": "lomax", "beta": "1.4"}),
        ("simulate", CAV_DOC, "mode", "cavity"),  # a cavity document passed to simulate
        ("cavity", CAV_DOC, "service", {"kind": 3}),
        pytest.param("cavity", CAV_DOC, "D", int("9" * 400), id="cavity-D-too-large-for-a-float"),
        pytest.param("simulate", NET_DOC, "N", int("9" * 400), id="simulate-N-too-large-for-a-float"),
    ])
    def test_bad_document_exits_before_any_work(self, tmp_path, capsys, command, base, key, value):
        out = tmp_path / "sub" / "bad"
        assert run_doc(tmp_path, command, {**base, key: value}, out) == EXIT_CONFIG
        assert not (tmp_path / "sub").exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("mode, objs", [
        ("network", (NET_CONFIG, cli.SimulateExtras())),
        ("network", (NET_CONFIG, cli.SimulateExtras(replications=2, pair_level=1))),
        *[("cavity", (cli.CavityPoint(D=2, alpha=0.5, service=make_spec(kind, 1.4 if kind in ("lomax", "pareto") else None)),
                      FixedPointControls(k_max=8, cycles_per_iter=2000, max_iter=1, seed=3))) for kind in KINDS],
    ], ids=["network", "network-pair-level", *KINDS])
    def test_sidecar_config_reads_back_to_its_dataclasses(self, tmp_path, mode, objs):
        doc = echo(mode, *objs)
        command = "simulate" if mode == "network" else "cavity"
        assert run_doc(tmp_path, command, doc, tmp_path / "run") == EXIT_OK
        written = json.loads((tmp_path / "run.json").read_text())["config"]
        assert written == doc
        assert written.pop("mode") == mode
        assert read_config(written, {}, *map(type, objs)) == list(objs)

    def test_beta_flag_without_service_flag_is_rejected(self, tmp_path):
        doc = {**CAV_DOC, "service": {"kind": "lomax", "beta": 1.4}}
        assert run_doc(tmp_path, "cavity", doc, tmp_path / "sub" / "x", "--beta", "3.0") == EXIT_CONFIG
        assert not (tmp_path / "sub").exists()

    def test_missing_required_field_is_named(self, tmp_path, capsys):
        doc = {k: v for k, v in CAV_DOC.items() if k != "service"}
        assert run_doc(tmp_path, "cavity", doc, tmp_path / "x") == EXIT_CONFIG
        assert "'service'" in capsys.readouterr().err

    def test_simulate_echoes_network_config_defaults(self, tmp_path):
        assert main(SIM_ARGS + ["--horizon", "60", "--out", str(tmp_path / "net")]) == EXIT_OK
        echo = json.loads((tmp_path / "net.json").read_text())["config"]
        defaults = {f.name: f.default for f in fields(NetworkConfig) if f.default is not MISSING and f.name != "seed"}
        assert defaults and {k: echo[k] for k in defaults} == defaults
        assert echo["replications"] == 1 and echo["pair_level"] is None

    def test_cavity_echoes_fixed_point_control_defaults(self, tmp_path):
        args = ["cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "cav")]) == EXIT_OK
        sidecar = json.loads((tmp_path / "cav.json").read_text())
        assert sidecar["controls"] == asdict(FixedPointControls(seed=3))
        assert {k: sidecar["config"][k] for k in sidecar["controls"]} == sidecar["controls"]

    def test_rerun_from_cavity_sidecar_reproduces_outputs(self, tmp_path):
        args = ["cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential",
                "--k-max", "8", "--cycles", "3000", "--max-iter", "2", "--noise-rel", "0.2", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "orig")]) == EXIT_OK
        rc = main(["cavity", "--config", str(tmp_path / "orig.json"), "--out", str(tmp_path / "rerun")])
        assert rc == EXIT_OK
        for suffix in (".csv", ".json"):
            assert (tmp_path / ("orig" + suffix)).read_bytes() == (tmp_path / ("rerun" + suffix)).read_bytes()

    def test_flags_override_document(self, tmp_path):
        assert run_doc(tmp_path, "simulate", NET_DOC, tmp_path / "flag", "--seed", "9", "--batches", "4") == EXIT_OK
        echo = json.loads((tmp_path / "flag.json").read_text())["config"]
        assert (echo["seed"], echo["n_batches"], echo["horizon"]) == (9, 4, 60.0)


class TestSimulate:
    def test_writes_csv_with_level_zero_row(self, tmp_path, capsys):
        out = tmp_path / "net"
        assert main(SIM_ARGS + ["--out", str(out)]) == EXIT_OK
        rows = read_tail_csv(tmp_path / "net.csv")
        assert rows[0] == (0, 1.0, 1.0, 1.0)
        sidecar = json.loads((tmp_path / "net.json").read_text())
        assert sidecar["config"]["N"] == 20
        assert sidecar["config"]["n_batches"] == 20
        assert "seed" not in sidecar and "batches" not in sidecar  # each value once, in config
        assert "runtime" in sidecar

    def test_config_error_exit_code(self, tmp_path):
        rc = main(["simulate", "--n-queues", "2", "--d-choices", "5", "--alpha", "0.5",
                   "--service", "exponential", "--horizon", "100", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    def test_missing_required_field(self, tmp_path):
        rc = main(["simulate", "--n-queues", "10", "--alpha", "0.5",
                   "--service", "exponential", "--horizon", "100", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    def test_replicated_run_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--n-queues", "10", "--d-choices", "2", "--alpha", "0.4",
                "--service", "exponential", "--horizon", "120", "--seed", "11",
                "--replications", "8"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        args = ["simulate", "--n-queues", "10", "--d-choices", "2", "--alpha", "0.4",
                "--service", "exponential", "--horizon", "120", "--seed", "11",
                "--replications", "4"]
        assert main(args + ["--out", str(tmp_path / "w1")]) == EXIT_OK
        assert main(args + ["--workers", "4", "--out", str(tmp_path / "w4")]) == EXIT_OK
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()

    def test_pair_level_writes_extra_csv(self, tmp_path):
        out = tmp_path / "pair"
        assert main(SIM_ARGS + ["--pair-level", "1", "--out", str(out)]) == EXIT_OK
        text = (tmp_path / "pair.pair.csv").read_text()
        assert text.startswith("k,cov,ci_low,ci_high\n")

    @pytest.mark.parametrize("replications", [1.5, True, 0])
    def test_extras_take_integer_replications(self, replications):
        with pytest.raises(ConfigError, match="^replications"):
            cli.SimulateExtras(replications=replications)

    @pytest.mark.parametrize("extra", [
        ["--pair-level", "0"],
        ["--pair-level", "65"],  # above the default k_max
        ["--pair-level", "1", "--n-queues", "1", "--d-choices", "1"],
    ])
    def test_bad_pair_level_exits_before_any_work(self, tmp_path, extra):
        out = tmp_path / "sub" / "bad"
        assert main(SIM_ARGS + extra + ["--out", str(out)]) == EXIT_CONFIG
        assert not (tmp_path / "sub").exists()

    def test_pair_csv_pools_replications_at_any_worker_count(self, tmp_path):
        args = SIM_ARGS + ["--pair-level", "1", "--replications", "3", "--horizon", "120"]
        assert main(args + ["--workers", "1", "--out", str(tmp_path / "w1")]) == EXIT_OK
        assert main(args + ["--workers", "2", "--out", str(tmp_path / "w2")]) == EXIT_OK
        assert (tmp_path / "w1.pair.csv").read_bytes() == (tmp_path / "w2.pair.csv").read_bytes()
        cfg = NetworkConfig(N=20, D=2, alpha=0.5, service=make_spec("exponential"), horizon=120.0, seed=4)
        dep = pair_dependence([run_replication(cfg, i, pair_level=1) for i in range(3)])
        assert dep.n_batches == 3 * cfg.n_batches
        _, row = (tmp_path / "w1.pair.csv").read_text().splitlines()
        assert row == f"1,{dep.cov!r},{(dep.cov - dep.ci)!r},{(dep.cov + dep.ci)!r}"

    def test_dotted_stems_do_not_collide(self, tmp_path):
        for alpha in ("0.5", "0.7"):
            args = ["simulate", "--n-queues", "10", "--d-choices", "2", "--alpha", alpha,
                    "--service", "exponential", "--horizon", "60", "--seed", "2"]
            assert main(args + ["--out", str(tmp_path / f"alpha{alpha}")]) == EXIT_OK
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["alpha0.5.csv", "alpha0.5.json", "alpha0.7.csv", "alpha0.7.json"]
        assert json.loads((tmp_path / "alpha0.7.json").read_text())["config"]["alpha"] == 0.7

    def test_rerun_from_sidecar_reproduces_csv(self, tmp_path):
        out = tmp_path / "orig"
        assert main(SIM_ARGS + ["--out", str(out)]) == EXIT_OK
        rerun = tmp_path / "rerun"
        rc = main(["simulate", "--config", str(tmp_path / "orig.json"), "--out", str(rerun)])
        assert rc == EXIT_OK
        assert (tmp_path / "orig.csv").read_bytes() == (tmp_path / "rerun.csv").read_bytes()

    def test_bad_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        bad.write_bytes(b'{"N": "\xff"}')  # not UTF-8
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        bad.write_text("[1, 2]")  # JSON, but not a document
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG


class TestCavity:
    def test_convergent_run(self, tmp_path):
        out = tmp_path / "cav"
        assert main(CAV_ARGS + ["--out", str(out)]) == EXIT_OK
        report = json.loads((tmp_path / "cav.json").read_text())
        assert report["converged"] is True
        rows = read_tail_csv(tmp_path / "cav.csv")
        assert rows[0][1] == 1.0
        assert abs(report["p"][2] - 0.125) < 0.02

    def test_non_convergence_still_exits_zero(self, tmp_path):
        out = tmp_path / "cav0"
        rc = main(["cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential", "--k-max", "8",
                   "--cycles", "2000", "--max-iter", "1", "--tol", "1e-12", "--seed", "3", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "cav0.json").read_text())
        assert report["converged"] is False
        assert report["iterations"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(CAV_ARGS + ["--out", str(a)]) == EXIT_OK
        assert main(CAV_ARGS + ["--out", str(b)]) == EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        assert main(CAV_ARGS + ["--out", str(tmp_path / "w1")]) == EXIT_OK
        assert main(CAV_ARGS + ["--workers", "3", "--out", str(tmp_path / "w3")]) == EXIT_OK
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()
        assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w3.json").read_bytes()

    def test_shard_groups_do_not_change_output(self, tmp_path):
        # six shards run in two kernel calls at --workers 1 and in three at --workers 3
        args = CAV_ARGS + ["--shards", "6", "--cycles", "6000", "--max-iter", "2"]
        assert main(args + ["--out", str(tmp_path / "w1")]) == EXIT_OK
        assert main(args + ["--workers", "3", "--out", str(tmp_path / "w3")]) == EXIT_OK
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()
        assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w3.json").read_bytes()

    def test_domain_error_exit_code(self, tmp_path):
        rc = main(["cavity", "--d-choices", "1", "--alpha", "0.5", "--service", "exponential",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("workers", ["1", "2"])  # at 2 the error crosses the process pool
    def test_kernel_runtime_error_exits_3_without_outputs(self, tmp_path, capsys, monkeypatch, workers):
        # forked pool workers inherit the patch: the shard-group runner looks simulate_cycles up per call
        def fail(*args):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(jsqlab.cavity, "simulate_cycles", fail)
        assert main(SMALL_CAV_ARGS + ["--workers", workers, "--out", str(tmp_path / "cav")]) == EXIT_RUNTIME
        assert not list(tmp_path.glob("cav*"))
        assert "kernel failed" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1e-160", "1e-200", "1e-320"])
    def test_overflowing_tiny_alpha_exits_2_without_outputs(self, tmp_path, capsys, alpha):
        # squared idle waits of about 1 / alpha**2 overflow; the interval once read -inf,inf or nan,nan
        assert main(SMALL_CAV_ARGS + ["--alpha", alpha, "--out", str(tmp_path / "cav")]) == EXIT_CONFIG
        assert not list(tmp_path.glob("cav*"))
        assert "alpha is too small" in capsys.readouterr().err

    def test_tiny_alpha_below_the_overflow_runs(self, tmp_path):
        # a repeated flag's last value wins
        assert main(SMALL_CAV_ARGS + ["--alpha", "1e-150", "--out", str(tmp_path / "cav")]) == EXIT_OK
        rows = read_tail_csv(tmp_path / "cav.csv")
        assert all(math.isfinite(x) for row in rows for x in row) and rows[1][2] > 0.0

    @pytest.mark.parametrize("flag", [["--noise-rel", "-0.1"], ["--noise-rel", "nan"], ["--shards", "0"],
                                      ["--max-iter", "0"]])
    def test_bad_controls_exit_before_any_work(self, tmp_path, flag):
        out = tmp_path / "sub" / "bad"
        assert main(CAV_ARGS + flag + ["--out", str(out)]) == EXIT_CONFIG
        assert not (tmp_path / "sub").exists()

    def test_dotted_stems_do_not_collide(self, tmp_path):
        args = ["cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential",
                "--k-max", "8", "--cycles", "2000", "--max-iter", "1", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "run0.5")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "run0.7")]) == EXIT_OK
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["run0.5.csv", "run0.5.json", "run0.7.csv", "run0.7.json"]


class TestWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool by one that records max_workers and maps in this process."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        return started

    @pytest.mark.parametrize("args", [SIM_ARGS, SMALL_CAV_ARGS])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_below_one_exits_before_writing(self, tmp_path, capsys, pools, args, workers):
        out = tmp_path / "sub" / "bad"
        assert main(args + ["--workers", workers, "--out", str(out)]) == EXIT_CONFIG
        assert not (tmp_path / "sub").exists()
        assert pools == []
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1.5, True, 0])
    def test_library_mapper_takes_integer_workers(self, pools, workers):
        with pytest.raises(ConfigError, match="^--workers"):
            with cli._mapper(workers, 4):
                pass
        assert pools == []

    @pytest.mark.parametrize("args, workers, started", [
        (SIM_ARGS + ["--horizon", "60", "--replications", "3"], "64", [3]),
        (SIM_ARGS + ["--horizon", "60"], "64", []),  # one replication runs in this process
        (SMALL_CAV_ARGS + ["--shards", "4"], "64", [4]),
        (SMALL_CAV_ARGS + ["--shards", "16", "--cycles", "3"], "64", [3]),  # three cycles make three shards
        (SMALL_CAV_ARGS + ["--shards", "1"], "64", []),
        (SMALL_CAV_ARGS, "2", [2]),
    ])
    def test_no_more_processes_than_jobs(self, tmp_path, pools, args, workers, started):
        assert main(args + ["--workers", workers, "--out", str(tmp_path / "run")]) == EXIT_OK
        assert pools == started


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    # every command at smoke size in a fresh interpreter loads no scipy module at all
    src = str(Path(jsqlab.__file__).resolve().parents[1])
    net, cav = str(tmp_path / "net"), str(tmp_path / "cav")
    argvs = [
        SIM_ARGS + ["--replications", "2", "--pair-level", "1", "--out", net],
        SMALL_CAV_ARGS + ["--out", cav],
        ["predict", "--d-choices", "2", "--beta", "1.4", "--beta", "3", "--out", str(tmp_path / "pred.csv")],
        ["fit", cav + ".csv", "--model", "exponential", "--rel-ci-max", "2.0", "--out", str(tmp_path / "fit.json")],
    ]
    code = (f"import sys; sys.path.insert(0, {src!r}); import jsqlab; from jsqlab.cli import main\n"
            f"print([main(argv) for argv in {argvs!r}])\n"
            # a None entry is an import blocker, not a loaded module
            "print(sorted(m for m, mod in sys.modules.items() if mod is not None and m.split('.')[0] == 'scipy'))")
    lines = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    codes, scipy_modules = lines.splitlines()[-2:]
    assert codes == repr([EXIT_OK] * len(argvs))
    assert scipy_modules == "[]"


class TestPredict:
    def test_rows(self, capsys):
        rc = main(["predict", "--d-choices", "2", "--beta", "3", "--beta", "1.4", "--beta", "2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "D,beta,regime,exponent"
        assert lines[1].startswith("2,3.0,doubly-exponential,0.69424")
        assert lines[2].startswith("2,1.4,power-law,0.6666")
        assert lines[3] == "2,2.0,exponential-boundary,"

    def test_beta_grid(self, capsys):
        rc = main(["predict", "--d-choices", "3", "--beta-grid", "1.6:2.0:0.2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4  # header + 1.6, 1.8, 2.0

    def test_requires_beta(self):
        assert main(["predict", "--d-choices", "2"]) == EXIT_CONFIG

    @pytest.mark.parametrize("grid", [
        "2:3:1e-20",  # a step too small to move beta
        "2:inf:1",
        "2:3:nan",
        "-1e308:1e308:1",  # hi - lo overflows to inf
    ])
    def test_bad_beta_grid_exits_before_writing(self, tmp_path, capsys, grid):
        out = tmp_path / "table.csv"
        assert main(["predict", "--d-choices", "2", f"--beta-grid={grid}", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "--beta-grid" in capsys.readouterr().err

    def test_config_document(self, tmp_path, capsys):
        cfg = tmp_path / "analytic.json"
        cfg.write_text(json.dumps({"mode": "analytic", "D": 2, "betas": [3.0, 1.4]}))
        assert main(["predict", "--config", str(cfg)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("2,3.0,doubly-exponential")

    def test_invalid_beta(self):
        assert main(["predict", "--d-choices", "2", "--beta", "0.5"]) == EXIT_CONFIG

    @pytest.mark.parametrize("extra, key", [
        ({"D": 2.5}, "D"),
        ({"D": 2.5, "typo": 1}, "typo"),
        ({"betas": "3"}, "betas"),
        ({"betas": [True]}, "betas"),
        ({"c1": 0.5}, "c1"),  # the tail constants are no longer a predict key
        pytest.param({"D": int("9" * 400)}, "D", id="D-too-large-for-a-float"),
    ])
    def test_bad_document_exits_before_writing(self, tmp_path, capsys, extra, key):
        cfg = tmp_path / "analytic.json"
        cfg.write_text(json.dumps({"mode": "analytic", "D": 2, "betas": [3.0], **extra}))
        out = tmp_path / "table.csv"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_flags_over_document(self, tmp_path, capsys):
        cfg = tmp_path / "analytic.json"
        cfg.write_text(json.dumps({"mode": "analytic", "D": 2, "betas": [3.0]}))
        flags = ["--d-choices", "3", "--beta", "1.4", "--beta-grid", "2.5:2.5:1"]
        assert main(["predict", "--config", str(cfg), *flags]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert [ln.split(",")[:2] for ln in lines[1:]] == [["3", "1.4"], ["3", "2.5"]]

    @pytest.mark.parametrize("flag", ["--c1", "--c2"])
    def test_tail_constants_are_not_flags(self, flag):
        with pytest.raises(SystemExit) as e:
            main(["predict", "--d-choices", "2", "--beta", "2", flag, "-5"])
        assert e.value.code == EXIT_CONFIG


class TestFit:
    def test_fit_cavity_output(self, tmp_path, capsys):
        out = tmp_path / "cav"
        main(["cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential",
              "--k-max", "12", "--cycles", "60000", "--seed", "3", "--out", str(out)])
        # the steep exponential-service tail leaves level 4 noisy at this
        # cycle count; admit it with a looser filter, the weights handle it
        rc = main(["fit", str(tmp_path / "cav.csv"), "--model", "doubly-exponential",
                   "--rel-ci-max", "2.0", "--out", str(tmp_path / "fit.json")])
        assert rc == EXIT_OK
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["model"] == "doubly-exponential"
        assert math.isfinite(fit["slope"])

    def test_insufficient_data_is_runtime_error(self, tmp_path):
        csv = tmp_path / "short.csv"
        csv.write_text("k,p,ci_low,ci_high\n0,1.0,1.0,1.0\n1,0.5,0.4,0.6\n")
        rc = main(["fit", str(csv), "--model", "exponential"])
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("flags, passed", [
        ([], {}),
        (["--d-choices", "3", "--k-min", "2"], {"d_choices": 3, "k_min": 2}),
    ])
    def test_passes_only_supplied_flags(self, monkeypatch, capsys, flags, passed):
        calls = []

        @dataclass
        class Fit:
            pass

        def fake_fit_tail(source, model, **kwargs):
            calls.append(kwargs)
            return Fit()

        monkeypatch.setattr("jsqlab.cli.fit_tail", fake_fit_tail)
        assert main(["fit", "any.csv", "--model", "exponential"] + flags) == EXIT_OK
        assert calls == [passed]

    @pytest.mark.parametrize("body, line", [
        ("0,1.0,1.0,1.0\n1,0.5,abc,0.6\n", 3),  # a non-numeric cell
        ("0,1.0,1.0,1.0\n1.5,0.5,0.4,0.6\n", 3),  # a fractional level
        ("0,1.0,1.0,1.0\n3,0.125,0.12,0.13\n1,0.5,0.49,0.51\n1,0.5,0.49,0.51\n1,0.5,0.49,0.51\n", 3),
        ("0,1.0,1.0,1.0\n1,0.5,0.49,0.51\n1,0.5,0.49,0.51\n2,0.25,0.24,0.26\n", 4),  # a duplicated level
        ("1,0.5,0.49,0.51\n2,0.25,0.24,0.26\n3,0.125,0.12,0.13\n4,0.06,0.05,0.07\n", 2),  # no level 0
        ("0,1.0,1.0,1.0\n1,0.5,0.4,\xff\n", 3),  # a byte that is not UTF-8
    ])
    def test_bad_csv_row_is_config_error(self, tmp_path, capsys, body, line):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(("k,p,ci_low,ci_high\n" + body).encode("latin-1"))
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv), "--model", "exponential", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert f"{csv}, line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [
        (["--rel-ci-max", "nan"], "rel_ci_max"),  # would turn the CI filter off
        (["--rel-ci-max", "inf"], "rel_ci_max"),
        (["--rel-ci-max=-0.5"], "rel_ci_max"),
        (["--rel-ci-max", "0"], "rel_ci_max"),
        (["--k-min", "5", "--k-max", "2"], "k_min"),
    ])
    def test_bad_fit_options_are_config_errors(self, tmp_path, capsys, flags, key):
        csv = tmp_path / "tail.csv"
        csv.write_text("k,p,ci_low,ci_high\n" + "".join(
            f"{k},{0.5**k!r},{0.49 * 0.5**k!r},{0.51 * 0.5**k!r}\n" for k in range(11)))
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv), "--model", "exponential", *flags, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        assert main(["fit", str(path), "--model", "exponential"]) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err


# A copy of the smoke command lines in bench/workloads.py, spelt out so that
# tier-1 does not import the benchmark: (argv without seed and output, suffixes).
BENCH_SMOKE_ARGV = {
    "network_n500": (
        ["simulate", "--n-queues", "500", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential",
         "--warmup", "0.2", "--k-max", "64", "--batches", "20", "--replications", "1", "--pair-level", "1",
         "--horizon", "100", "--workers", "1"],
        (".csv", ".json", ".pair.csv"),
    ),
    "cavity_exp": (
        ["cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential", "--k-max", "64",
         "--tol", "1e-12", "--noise-rel", "0.05", "--damping", "1.0", "--shards", "16",
         "--cycles", "10000", "--max-iter", "5", "--workers", "1"],
        (".csv", ".json"),
    ),
    "cavity_lomax14_w2": (
        ["cavity", "--d-choices", "2", "--alpha", "0.7", "--service", "lomax", "--beta", "1.4", "--k-max", "128",
         "--tol", "1e-12", "--noise-rel", "0.05", "--damping", "0.3", "--shards", "16",
         "--cycles", "4000", "--max-iter", "3", "--workers", "2"],
        (".csv", ".json"),
    ),
}


@pytest.mark.parametrize("workload, seed, digest", [
    ("network_n500", 1,
     "f81ba1a227bc84ad495788b01415d0b27fab4223c00ab4a99c75b322ffd8bfb3"),
    ("network_n500", 7,
     "842599e60f9c70c12f16b463bc08e820b0c9e3843a859aa220aa36fc2a497238"),
    ("cavity_exp", 1,
     "52d660cc3670298224db7bdbec79b48cb29d879c45b759f950038f928aacc1fd"),
    ("cavity_exp", 7,
     "0351a7b23f6d076be2728c3a1f0bf49d4010fa748cf4653f66f6491550375d23"),
    ("cavity_lomax14_w2", 1,
     "641e9b2639412c09f70209306ab741fee32f7ceed9fefe2eaead9baa06629309"),
    ("cavity_lomax14_w2", 7,
     "c3f768be7d229f7410a2e5a150feb006b0781bf295192feea13ab466ab544253"),
])
def test_benchmark_argv_digest(tmp_path, workload, seed, digest):
    # pins every byte the benchmark's command lines write, but the simulate sidecar's wall clock
    argv, suffixes = BENCH_SMOKE_ARGV[workload]
    stem = tmp_path / "run"
    assert main([*argv, "--seed", str(seed), "--out", str(stem)]) == EXIT_OK
    h = hashlib.sha256()
    for suffix in suffixes:
        data = (tmp_path / ("run" + suffix)).read_bytes()
        if suffix == ".json" and workload == "network_n500":
            doc = json.loads(data)
            del doc["runtime"]
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(data)
    assert h.hexdigest() == digest
