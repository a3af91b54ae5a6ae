"""Tests of the benchmark itself: python3 -m pytest bench/tests -q

Smoke-sized runs of every workload must print every metric BENCHMARK.json
names, with its unit; every correctness check must reject corrupted output;
and the two-worker cavity workload must write the same bytes as one worker.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from workloads import WORKLOADS, canonical  # noqa: E402

from jsqlab.analytic import vdk_tail  # noqa: E402
from jsqlab.cli import EXIT_OK, main  # noqa: E402

SEED = 1


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke_run(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result, table = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        # the issue's names for work per second and failures are printed in the table
        printed = " ".join(table)
        assert WORKLOADS[workload].work_name in printed and "failed_frac" in printed
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    values = {name: m["value"] for name, m in result["metrics"].items()}
    wall = values["trace.traced_wall_s"]
    if workload == "network_n500":
        assert values["network.engine_s"] + values["network.pair_s"] > 0.5 * wall
    if workload == "cavity_exp":
        assert values["cavity.kernel_s"] > 0.5 * wall
    assert values["service_dist.draws"] > 0


def test_workload_names_and_reasons_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in bench_json()["workloads"]}
    assert declared == {name: w.why for name, w in WORKLOADS.items()}


def test_bench_oracle_matches_library():
    for k in range(0, 8):
        assert workloads.vdk_tail(0.5, 2, k) == pytest.approx(vdk_tail(0.5, 2, k), rel=1e-12)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Smoke-sized outputs of every workload, written once."""
    base = tmp_path_factory.mktemp("outputs")
    stems = {}
    for name, w in WORKLOADS.items():
        stems[name] = base / name / "out"
        stems[name].parent.mkdir()
        assert main(w.argv(SEED, stems[name], smoke=True)) == EXIT_OK
        assert w.check(stems[name]) == []
    return stems


def corrupted(stem: Path, tmp_path: Path, edit) -> Path:
    """Copy a repetition's outputs and apply ``edit(copy_stem)``."""
    copy = tmp_path / stem.parent.name / stem.name
    shutil.copytree(stem.parent, copy.parent)
    edit(copy)
    return copy


def edit_csv_p(k: int, factor: float):
    def edit(stem):
        path = stem.with_suffix(".csv")
        lines = path.read_text(encoding="utf-8").split("\n")
        fields = lines[k + 1].split(",")
        fields[1] = repr(float(fields[1]) * factor)
        lines[k + 1] = ",".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")

    return edit


def edit_json(change):
    def edit(stem):
        path = stem.with_suffix(".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        change(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")

    return edit


def scale_p(k, factor):
    def change(doc):
        doc["p"][k] *= factor

    return change


@pytest.mark.parametrize("edit, fragment", [
    (edit_csv_p(2, 1.3), "p[2]"),
    (edit_csv_p(1, 0.9), "p[1]"),
    (edit_csv_p(3, 3.0), "factor 2"),
])
def test_network_check_rejects_corrupted_tail(outputs, tmp_path, edit, fragment):
    stem = corrupted(outputs["network_n500"], tmp_path, edit)
    assert any(fragment in p for p in WORKLOADS["network_n500"].check(stem))


@pytest.mark.parametrize("name, change, fragment", [
    ("cavity_exp", scale_p(2, 1.3), "p[2]"),
    ("cavity_exp", scale_p(3, 0.5), "p[3]"),
    ("cavity_lomax14_w2", scale_p(1, 0.8), "p[1]"),
    ("cavity_exp", lambda d: d.update(converged=True), "fixed budget"),
    ("cavity_lomax14_w2", lambda d: d.update(iterations=d["iterations"] - 1), "fixed budget"),
])
def test_cavity_checks_reject_corrupted_report(outputs, tmp_path, name, change, fragment):
    stem = corrupted(outputs[name], tmp_path, edit_json(change))
    assert any(fragment in p for p in WORKLOADS[name].check(stem))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_flipped_csv_byte_breaks_identity(outputs, tmp_path, name):
    w = WORKLOADS[name]

    def flip(stem):
        path = stem.with_suffix(".csv")
        data = bytearray(path.read_bytes())
        i = data.index(b"\n2,") + 6  # a digit of p[2]
        data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
        path.write_bytes(bytes(data))

    stem = corrupted(outputs[name], tmp_path, flip)
    original = [canonical(p) for p in w.outputs(outputs[name])]
    assert [canonical(p) for p in w.outputs(stem)] != original


def test_simulate_sidecar_wall_clock_is_not_compared(outputs, tmp_path):
    w = WORKLOADS["network_n500"]
    stem = corrupted(outputs["network_n500"], tmp_path, edit_json(lambda d: d.update(runtime=-1.0)))
    assert [canonical(p) for p in w.outputs(stem)] == [canonical(p) for p in w.outputs(outputs["network_n500"])]


def test_malformed_csv_is_rejected(outputs, tmp_path):
    stem = corrupted(outputs["cavity_exp"], tmp_path,
                     lambda s: s.with_suffix(".csv").write_text("k,p\n0,1.0\n", encoding="utf-8"))
    with pytest.raises(ValueError):
        WORKLOADS["cavity_exp"].check(stem)


def test_lomax_two_workers_write_the_same_bytes_as_one(outputs, tmp_path):
    w = WORKLOADS["cavity_lomax14_w2"]
    stem = tmp_path / "one"
    argv = w.argv(SEED, stem, smoke=True)
    argv[argv.index("--workers") + 1] = "1"
    assert main(argv) == EXIT_OK
    for mine, theirs in zip(w.outputs(stem), w.outputs(outputs["cavity_lomax14_w2"])):
        assert mine.read_bytes() == theirs.read_bytes()
