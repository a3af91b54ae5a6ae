"""The benchmark's workloads: pinned ``jsqlab`` command lines and output checks.

Every statistical control is spelled out in each argv, so a later change to
a library or CLI default cannot silently change what a workload does. Both
cavity workloads run a fixed iteration budget: their ``--tol`` is one no run
reaches, so the amount of work never depends on when a random stream
happens to converge.

Each check reads the files a repetition wrote and returns a list of
problems (empty when the outputs are correct). The checks parse the files
themselves and carry their own copy of the closed-form oracle, so they do
not trust the code they are checking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

D = 2
UNREACHABLE_TOL = "1e-12"  # no fixed-point distance gets this small, so max_iter always runs out


def vdk_tail(alpha: float, d: int, k: int) -> float:
    """Exponential-service large-N limit p[k] = alpha**((d**k - 1)/(d - 1))."""
    return alpha ** ((d**k - 1) // (d - 1))


def read_rows(path: Path, header: str) -> list:
    """Numeric rows of a CSV with the given header; ValueError if malformed."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != header or lines[-1] != "" or len(lines) < 3:
        raise ValueError(f"{path.name}: expected header {header!r} and LF-terminated rows")
    return [[float(x) for x in line.split(",")] for line in lines[1:-1]]


def read_tail_csv(path: Path) -> list:
    """Rows (k, p, halfwidth) of a ``k,p,ci_low,ci_high`` file; ValueError if malformed."""
    rows = []
    for i, (k, p, lo, hi) in enumerate(read_rows(path, "k,p,ci_low,ci_high")):
        if k != i:
            raise ValueError(f"{path.name}: level {k} out of order")
        rows.append((i, p, 0.5 * (hi - lo)))
    return rows


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _within_3ci(name: str, p: float, half: float, target: float) -> list:
    if not (math.isfinite(p) and math.isfinite(half)) or abs(p - target) > 3.0 * half:
        return [f"{name}={p!r} is not within 3 CI ({half!r}) of {target!r}"]
    return []


def _fixed_budget(doc: dict) -> list:
    max_iter = doc["controls"]["max_iter"]
    if doc["iterations"] != max_iter or doc["converged"] is not False:
        return [f"fixed budget not honoured: {doc['iterations']} of {max_iter} iterations, "
                f"converged={doc['converged']!r}"]
    return []


def check_network(stem: Path) -> list:
    """Criterion 04: p[1], p[2] within 3 CI of vdk_tail, p[3] within a factor 2.

    conservation_audit runs inside ``simulate`` on every replication; a
    failed audit exits 3, which the harness counts as a failure.
    """
    rows = read_tail_csv(stem.with_suffix(".csv"))
    doc = _load(stem.with_suffix(".json"))
    read_rows(stem.with_suffix(".pair.csv"), "k,cov,ci_low,ci_high")
    problems = []
    if not doc["arrivals"] >= doc["departures"] > 0:
        problems.append(f"sidecar counts arrivals={doc['arrivals']} departures={doc['departures']}")
    for k in (1, 2):
        problems += _within_3ci(f"p[{k}]", rows[k][1], rows[k][2], vdk_tail(0.5, D, k))
    p3, target = rows[3][1], vdk_tail(0.5, D, 3)
    if not target / 2 <= p3 <= target * 2:
        problems.append(f"p[3]={p3!r} is not within a factor 2 of {target!r}")
    return problems


def check_cavity_exp(stem: Path) -> list:
    """Fixed budget run out, and criterion 03: p[1..3] within 3 CI of vdk_tail."""
    read_tail_csv(stem.with_suffix(".csv"))
    doc = _load(stem.with_suffix(".json"))
    problems = _fixed_budget(doc)
    for k in (1, 2, 3):
        problems += _within_3ci(f"p[{k}]", doc["p"][k], doc["ci"][k], vdk_tail(0.5, D, k))
    return problems


def check_cavity_lomax(stem: Path) -> list:
    """Fixed budget run out, and p[1] within 3 CI of alpha (the utilisation identity).

    Exit 0 already means no cycle was aborted: tail_from_cycles raises on
    any, which ``cavity`` turns into exit 3.
    """
    read_tail_csv(stem.with_suffix(".csv"))
    doc = _load(stem.with_suffix(".json"))
    return _fixed_budget(doc) + _within_3ci("p[1]", doc["p"][1], doc["ci"][1], 0.7)


def network_work(stem: Path) -> float:
    """Arrivals plus departures behind the reported tail, from the sidecar."""
    doc = _load(stem.with_suffix(".json"))
    return float(doc["arrivals"] + doc["departures"])


def cavity_work(stem: Path) -> float:
    """Regeneration cycles simulated: iterations times cycles per iteration."""
    doc = _load(stem.with_suffix(".json"))
    return float(doc["iterations"] * doc["controls"]["cycles_per_iter"])


def canonical(path: Path) -> bytes:
    """The bytes of an output file that must repeat exactly for one (argv, seed).

    The ``simulate`` sidecar records its own wall clock under ``runtime``;
    every other byte of every output must repeat.
    """
    if path.suffix != ".json":
        return path.read_bytes()
    doc = _load(path)
    if doc.get("config", {}).get("mode") == "network":
        doc.pop("runtime")
    return json.dumps(doc, sort_keys=True).encode()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple  # every flag except size, seed, workers and output stem
    full: dict  # size flags of a benchmark run
    smoke: dict  # size flags of the benchmark's own tests
    workers: int
    suffixes: tuple  # output files, appended to the stem
    check: Callable  # stem -> list of problems
    work: Callable  # stem -> simulated work behind the reported tail
    work_name: str  # the per-workload name of work per wall second
    service: str  # kind of the service law (lomax is always beta 1.4, as in the microbench)

    def argv(self, seed: int, stem: Path, smoke: bool = False) -> list:
        size = self.smoke if smoke else self.full
        flags = [x for flag, value in size.items() for x in (flag, str(value))]
        return [*self.command, *flags, "--seed", str(seed), "--workers", str(self.workers),
                "--out", str(stem)]

    def outputs(self, stem: Path) -> list:
        return [stem.parent / (stem.name + s) for s in self.suffixes]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="network_n500",
            why="README simulate command: nearly all time is the network event loop, half of it in the "
                "pair_dependence second pass; no cavity work",
            command=("simulate", "--n-queues", "500", "--d-choices", "2", "--alpha", "0.5",
                     "--service", "exponential", "--warmup", "0.2", "--k-max", "64", "--batches", "20",
                     "--replications", "1", "--pair-level", "1"),
            full={"--horizon": 2500},
            smoke={"--horizon": 100},
            workers=1,
            suffixes=(".csv", ".json", ".pair.csv"),
            check=check_network,
            work=network_work,
            work_name="net_events_per_s",
            service="exponential",
        ),
        Workload(
            name="cavity_exp",
            why="README cavity command, exponential service, one process: short shallow cycles make it "
                "kernel-bound, with the exact vdk_tail oracle; network layer idle",
            command=("cavity", "--d-choices", "2", "--alpha", "0.5", "--service", "exponential",
                     "--k-max", "64", "--tol", UNREACHABLE_TOL, "--noise-rel", "0.05", "--damping", "1.0",
                     "--shards", "16"),
            full={"--cycles": 200_000, "--max-iter": 8},
            smoke={"--cycles": 10_000, "--max-iter": 5},
            workers=1,
            suffixes=(".csv", ".json"),
            check=check_cavity_exp,
            work=cavity_work,
            work_name="cavity_cycles_per_s",
            service="exponential",
        ),
        Workload(
            name="cavity_lomax14_w2",
            why="lomax 1.4 (power-law regime), 2 workers: long heavy-tailed cycles, a frontier that deepens "
                "each iteration and a 16-shard barrier per iteration",
            command=("cavity", "--d-choices", "2", "--alpha", "0.7", "--service", "lomax", "--beta", "1.4",
                     "--k-max", "128", "--tol", UNREACHABLE_TOL, "--noise-rel", "0.05", "--damping", "0.3",
                     "--shards", "16"),
            full={"--cycles": 50_000, "--max-iter": 32},
            smoke={"--cycles": 4_000, "--max-iter": 3},
            workers=2,
            suffixes=(".csv", ".json"),
            check=check_cavity_lomax,
            work=cavity_work,
            work_name="cavity_cycles_per_s",
            service="lomax",
        ),
    )
}
