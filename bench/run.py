"""The jsqlab benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each repetition runs the workload's ``jsqlab`` command line through
``jsqlab.cli.main`` in a fresh interpreter (``child.py``) with its own output
directory under ``.bench_runs/``. Every repetition's outputs are checked for
correctness and for byte identity with the first repetition of the run (all
repetitions of a run use the same seed). Repetitions continue until
``--seconds`` have passed, at least three of them, and each metric is the
median over repetitions.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions, where ``spans.py`` wraps the public
functions of each layer, adds a microbench run (``microbench.py``) and
reports the per-layer metrics, including the tracing overhead (traced minus
untraced ``wall_s``). Human-readable tables go to standard output first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--smoke`` runs tiny sizes, for the benchmark's own tests.

Exit codes: 0 with a result line; 1 if no repetition produced metrics; 2 if
the checkout holds no ``src/jsqlab`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, canonical

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
HARD_LIMIT_S = 165.0  # the whole invocation must end within 180 s
TOL_DISTANCE = 0.05  # cavity.iters_to_tol: first iteration whose distance is below this

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",  # also printed under the workload's own name (Workload.work_name)
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "network.engine_s": "s",
    "network.events": "count",
    "network.engine_events_per_s": "1/s",
    "network.pair_s": "s",
    "network.estimate_s": "s",
    "network.audit_s": "s",
    "network.merge_s": "s",
    "cavity.kernel_s": "s",
    "cavity.kernel_cycles_per_s": "1/s",
    "cavity.simtime_per_s": "1",
    "cavity.sharded_s": "s",
    "cavity.parallel_eff": "ratio",
    "cavity.max_level": "count",
    "cavity.aborted_frac": "ratio",
    "cavity.cycles": "count",
    "cavity.iterations": "count",
    "cavity.iters_to_tol": "count",
    "cavity.estimate_us": "us",
    "cavity.fixed_point_self_s": "s",
    "cavity.tail_from_cycles_us": "us",
    "service_dist.draws": "count",
    "service_dist.ns_per_draw": "ns",
    "service_dist.share": "ratio",
    "service_dist.exponential_draws_per_s": "1/s",
    "service_dist.lomax_draws_per_s": "1/s",
    "service_dist.pareto_draws_per_s": "1/s",
    "service_dist.deterministic_draws_per_s": "1/s",
    "service_dist.bounded-uniform_draws_per_s": "1/s",
    "seeding.derive_s": "s",
    "tails.io_s": "s",
    "fitting.fit_us": "us",
    "analytic.q_root_us": "us",
    "analytic.vdk_tail_us": "us",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def run_child(cmd: list, timeout: float) -> tuple:
    """Run ``cmd`` in its own session and wait; kill the whole group if it overruns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        err = f"timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        try:  # the child's pool workers, if it overran or crashed
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    return proc.returncode, err


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """One invocation: repetitions of one workload with one seed."""

    def __init__(self, workload, seed: int, smoke: bool, deadline: float):
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = deadline
        RUNS.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{seed}-", dir=RUNS))
        self.reps: list = []
        self.reference = None  # canonical output bytes of the first repetition that finished

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def repetition(self, traced: bool) -> dict:
        rep_dir = self.dir / f"rep{len(self.reps):02d}{'-traced' if traced else ''}"
        rep_dir.mkdir()
        stem = rep_dir / "out"
        spec = {
            "src": str(SRC),
            "argv": self.w.argv(self.seed, stem, self.smoke),
            "trace": traced,
            "trace_id": f"{self.dir.name}/{rep_dir.name}",
            "result": str(rep_dir / "result.json"),
            "spans": str(rep_dir / "spans.json"),
        }
        (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        rep = {"traced": traced, "ok": False, "problems": [], "result": None}
        self.reps.append(rep)
        rc, err = run_child([sys.executable, str(BENCH_DIR / "child.py"), str(rep_dir / "spec.json")],
                            self.time_left())
        if rc != 0:
            rep["problems"].append(f"child exited {rc}: {err.strip()[-400:]}")
            return rep
        rep["result"] = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
        if rep["result"]["rc"] != 0:
            rep["problems"].append(f"jsqlab exited {rep['result']['rc']}: {err.strip()[-400:]}")
            return rep
        try:
            rep["problems"] += self.w.check(stem)
            rep["work"] = self.w.work(stem)
            outputs = [canonical(p) for p in self.w.outputs(stem)]
            if traced:
                rep["spans"] = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
                rep["report"] = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            rep["problems"].append(f"unreadable output: {type(e).__name__}: {e}")
            return rep
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            rep["problems"].append("outputs differ from the first repetition of this seed")
        rep["ok"] = not rep["problems"]
        return rep

    def microbench(self) -> dict:
        out = self.dir / "microbench.json"
        rc, err = run_child([sys.executable, str(BENCH_DIR / "microbench.py"), str(SRC), str(out)],
                            self.time_left())
        if rc != 0:
            raise RuntimeError(f"microbench exited {rc}: {err.strip()[-400:]}")
        return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(rep: dict) -> dict:
    r = rep["result"]
    return {
        "wall_s": r["wall_s"],
        "setup_s": r["setup_s"],
        "cpu_s": r["cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "work_per_s": rep["work"] / r["wall_s"],
    }


def layer_metrics(rep: dict, workers: int) -> dict:
    """Per-layer metrics of one traced repetition, from its spans and report."""
    spans = rep["spans"]["spans"]
    by_name = defaultdict(list)
    covered = defaultdict(float)  # span id -> time covered by its direct children
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            covered[s["parent"]] += s["dur"]

    def total(name):
        return sum(s["dur"] for s in by_name[name])

    def self_time(name):
        return sum(s["dur"] - covered[s["id"]] for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    runs = [s["attrs"] for s in by_name["network.run_network"]]
    engine_s = sum(a["runtime_s"] for a in runs)
    events = sum(a["events"] for a in runs)
    shards = [s["attrs"] for s in by_name["cavity.simulate_cycles_sharded"]]
    cycles = sum(a["n_cycles"] for a in shards)
    aborted = sum(a["n_aborted"] for a in shards)
    sharded_s = total("cavity.simulate_cycles_sharded")
    # forked pool workers cannot hand back spans; their CPU time stands in for the kernel
    kernel_s = rep["result"]["child_cpu_s"] if workers > 1 else total("cavity.simulate_cycles")
    estimates = by_name["cavity.tail_from_cycles"]
    distances = rep["report"].get("distances", [])
    return {
        "cli.self_s": self_time("cli.main"),
        "network.engine_s": engine_s,
        "network.events": events,
        "network.engine_events_per_s": ratio(events, engine_s),
        "network.pair_s": total("network.pair_dependence"),
        "network.estimate_s": total("network.run_network") - engine_s,
        "network.audit_s": total("network.conservation_audit"),
        "network.merge_s": total("network.merge_estimates"),
        "cavity.kernel_s": kernel_s,
        "cavity.kernel_cycles_per_s": ratio(cycles, kernel_s),
        "cavity.simtime_per_s": ratio(sum(a["total_time"] for a in shards), kernel_s),
        "cavity.sharded_s": sharded_s,
        "cavity.parallel_eff": ratio(kernel_s, workers * sharded_s),
        "cavity.max_level": max((a["max_level"] for a in shards), default=0),
        "cavity.aborted_frac": ratio(aborted, cycles + aborted),
        "cavity.cycles": cycles,
        "cavity.iterations": len(shards),
        "cavity.iters_to_tol": next((i + 1 for i, d in enumerate(distances) if d < TOL_DISTANCE), 0),
        "cavity.estimate_us": 1e6 * ratio(total("cavity.tail_from_cycles"), len(estimates)),
        "cavity.fixed_point_self_s": self_time("cavity.fixed_point"),
        "service_dist.draws": rep["spans"]["draws"],
        "seeding.derive_s": total("seeding.derive_stream"),
        "tails.io_s": total("tails.write_tail_csv"),
        "trace.traced_wall_s": rep["result"]["wall_s"],
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def print_table(title: str, rows: list) -> None:
    print(title)
    print(f"  {'metric':<42} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"  {name:<42} {unit:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>3}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "jsqlab" / "cli.py").is_file():
        print(f"no jsqlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    w = WORKLOADS[args.workload]
    run = Run(w, args.seed, args.smoke, started + HARD_LIMIT_S)

    if args.trace:
        try:
            micro = run.microbench()
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 1
        while len(run.reps) < 2 * MIN_TRACED_PAIRS or time.monotonic() - started < args.seconds:
            if run.time_left() < 30.0:
                break
            run.repetition(traced=False)
            run.repetition(traced=True)
    else:
        while len(run.reps) < MIN_REPS or time.monotonic() - started < args.seconds:
            if run.time_left() < 30.0:
                break
            run.repetition(traced=False)

    done = [r for r in run.reps if r["ok"]]
    failed = len(run.reps) - len(done)
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced):
        for i, r in enumerate(run.reps):
            print(f"repetition {i}: {'; '.join(r['problems'])}", file=sys.stderr)
        print("no repetition produced metrics", file=sys.stderr)
        return 1

    versions = untraced[0]["result"]["versions"]
    meta = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "nproc": os.cpu_count(), **versions, "commit": git_commit(),
        "src_lines": src_lines(), "run_dir": str(run.dir.relative_to(ROOT)),
    }
    print("jsqlab benchmark " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print("argv: jsqlab " + " ".join(w.argv(args.seed, Path("<out>"), args.smoke)))
    for i, r in enumerate(run.reps):
        if r["problems"]:
            print(f"repetition {i} FAILED: {'; '.join(r['problems'])}")

    e2e = [end_to_end(r) for r in untraced]
    rows = [(name, unit, [m[name] for m in e2e]) for name, unit in END_TO_END.items()]
    rows.append((w.work_name, "1/s", [m["work_per_s"] for m in e2e]))
    rows.append(("failed_frac", "ratio", [failed / len(run.reps)]))
    print_table(f"end-to-end, {len(untraced)} untraced repetitions", rows)

    if args.trace:
        wall = statistics.median(m["wall_s"] for m in e2e)
        per_rep = [layer_metrics(r, w.workers) for r in traced]
        samples = {name: [m[name] for m in per_rep] for name in per_rep[0]}
        samples["cli.import_s"] = [r["result"]["import_s"] for r in done]
        samples.update({name: [value] for name, value in micro.items()})
        ns_per_draw = 1e9 / micro[f"service_dist.{w.service}_draws_per_s"]
        samples["service_dist.ns_per_draw"] = [ns_per_draw]
        samples["service_dist.share"] = [n * ns_per_draw * 1e-9 / wall for n in samples["service_dist.draws"]]
        samples["trace.overhead_s"] = [t - wall for t in samples["trace.traced_wall_s"]]
        rows = [(name, unit, samples[name]) for name, unit in PER_LAYER.items()]
        print_table(f"per layer, {len(traced)} traced repetitions and one microbench run", rows)
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, unit, values in rows if name in (PER_LAYER if args.trace else END_TO_END)}

    result = {"correct": failed == 0, "attempted": len(run.reps), "failed": failed, "metrics": metrics}
    (run.dir / "result.json").write_text(
        json.dumps({"meta": meta, **result,
                    "repetitions": [{k: r.get(k) for k in ("traced", "ok", "problems", "result", "work")}
                                    for r in run.reps]}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
