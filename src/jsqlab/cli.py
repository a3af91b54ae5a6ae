"""Command-line orchestration: simulate, cavity, predict, fit.

Experiment configs are JSON documents read into the config dataclasses;
flags mirror the document fields and override them, and an unknown key or a
wrongly typed value is a configuration error. Every run writes a config echo
sufficient to reproduce it (``--config`` also accepts a previously written
sidecar). Exit codes: 0 for success including statistical non-convergence,
2 for configuration errors, 3 for runtime or IO failures, so studies can
tell "wrong input" from "needs more cycles".

Replications (simulate) and groups of shards (cavity) run in parallel up
to ``--workers`` (at least 1, and never more processes than jobs); randomness
is derived from the base seed by fixed keys, so the worker count never
changes any output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .analytic import classify_regime
from .cavity import FixedPointControls, fixed_point
from .config import echo, read_config
from .errors import ConfigError, check_int
from .fitting import MODELS, fit_tail
from .network import (
    NetworkConfig,
    check_pair_level,
    conservation_audit,
    merge_estimates,
    pair_dependence,
    run_replication,
)
from .service_dist import KINDS, ServiceDistributionSpec
from .tails import write_tail_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class SimulateExtras:
    """Keys of a simulate document beside the NetworkConfig fields."""

    replications: int = 1
    pair_level: int | None = None

    def __post_init__(self):
        check_int("replications", self.replications, 1)


@dataclass(frozen=True)
class CavityPoint:
    """Keys of a cavity document beside the FixedPointControls fields."""

    D: int
    alpha: float
    service: ServiceDistributionSpec


@dataclass(frozen=True)
class PredictConfig:
    """Keys of a predict (mode=analytic) document."""

    D: int
    betas: list = field(default_factory=list)


def _read_doc(args, mode: str) -> dict:
    """The ``--config`` document (empty without one), checked for ``mode`` and stripped of it.

    A sidecar written by an earlier run is read through its ``config`` block.
    """
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:  # unreadable, not UTF-8 or not JSON
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} must contain a JSON object")
        if isinstance(doc.get("config"), dict):
            doc = doc["config"]
    got = doc.pop("mode", mode)
    if got != mode:
        raise ConfigError(f"{args.command} expects a mode={mode} config, got mode={got!r}")
    return doc


def _read_run_config(args, mode: str, *classes) -> list:
    """The run's dataclasses from ``--config`` with the supplied flags laid over it."""
    doc = _read_doc(args, mode)
    if args.service is None and args.beta is not None:
        raise ConfigError("--beta needs --service; a document's service is not amended flag by flag")
    service = None if args.service is None else {"kind": args.service, "beta": args.beta}
    return read_config(doc, {**vars(args), "service": service}, *classes)


@contextmanager
def _mapper(workers: int, jobs: int):
    """``map`` in this process, or a pool's ``map`` with no more processes than ``jobs``."""
    n = min(check_int("--workers", workers, 1), jobs)
    if n <= 1:
        yield map
    else:
        with ProcessPoolExecutor(max_workers=n) as pool:
            yield pool.map


def _out_path(out: Path, suffix: str) -> Path:
    """``out`` plus a suffix, appended so dotted stems never collide."""
    return out.parent / (out.name + suffix)


def _write_text(path, text: str) -> None:
    """``text`` with LF line endings to ``path``, or to stdout when there is no path."""
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _write_json(path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    config, extras = _read_run_config(args, "network", NetworkConfig, SimulateExtras)
    pair_level, replications = extras.pair_level, extras.replications
    if pair_level is not None:
        check_pair_level(config, pair_level)

    t0 = time.perf_counter()
    with _mapper(args.workers, replications) as map_fn:
        runs = list(map_fn(_replication_job, [(config, i, pair_level) for i in range(replications)]))
    for run in runs:
        conservation_audit(run)
    merged = merge_estimates(runs)
    runtime = time.perf_counter() - t0

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = _out_path(out, ".csv")
    json_path = _out_path(out, ".json")
    write_tail_csv(csv_path, merged)
    sidecar = {
        "config": echo("network", config, extras),
        "runtime": runtime,
        "arrivals": sum(r.arrivals for r in runs),
        "departures": sum(r.departures for r in runs),
    }
    _write_json(json_path, sidecar)
    written = [str(csv_path), str(json_path)]

    if pair_level is not None:
        dep = pair_dependence(runs)
        pair_path = _out_path(out, ".pair.csv")
        _write_text(pair_path, "k,cov,ci_low,ci_high\n"
                    f"{dep.level},{dep.cov!r},{(dep.cov - dep.ci)!r},{(dep.cov + dep.ci)!r}\n")
        written.append(str(pair_path))
    print(f"simulate: wrote {', '.join(written)}")
    return EXIT_OK


def _replication_job(job):
    return run_replication(*job)


def cmd_cavity(args) -> int:
    point, controls = _read_run_config(args, "cavity", CavityPoint, FixedPointControls)

    with _mapper(args.workers, min(controls.shards, controls.cycles_per_iter)) as map_fn:
        report = fixed_point(point.service, point.alpha, point.D, controls, map_fn=map_fn, workers=args.workers)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    json_path = _out_path(out, ".json")
    sidecar = {
        "config": echo("cavity", point, controls),
        "p": list(report.env.p),
        "ci": report.estimate.ci,
        "distances": report.distances,
        "iterations": len(report.distances),
        "converged": report.converged,
        "max_level": report.max_level,
        # repeats config's controls; bench/workloads.py reads this copy
        "controls": asdict(controls),
    }
    _write_json(json_path, sidecar)
    csv_path = _out_path(out, ".csv")
    write_tail_csv(csv_path, report.estimate)
    print(f"cavity: converged={report.converged} after {len(report.distances)} iteration(s); "
          f"wrote {csv_path}, {json_path}")
    return EXIT_OK


def _parse_betas(args, betas: list) -> list:
    """``betas`` followed by the ``--beta-grid`` points."""
    betas = list(betas)
    if args.beta_grid:
        try:
            lo, hi, step = (float(x) for x in args.beta_grid.split(":"))
        except ValueError as e:
            raise ConfigError(f"--beta-grid expects lo:hi:step, got {args.beta_grid!r}") from e
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise ConfigError(f"--beta-grid needs finite parts, step > 0 and hi >= lo, got {args.beta_grid!r}")
        span = (hi - lo + 1e-12) / step
        if not span < MAX_GRID_POINTS:  # also a span that overflowed to inf
            raise ConfigError(f"--beta-grid {args.beta_grid!r} has more than {MAX_GRID_POINTS} points")
        betas += [round(lo + i * step, 12) for i in range(math.floor(span) + 1)]
    if not betas:
        raise ConfigError("predict needs --beta and/or --beta-grid")
    return betas


def cmd_predict(args) -> int:
    (cfg,) = read_config(_read_doc(args, "analytic"), {**vars(args), "betas": args.beta}, PredictConfig)
    rows = ["D,beta,regime,exponent"]
    for beta in _parse_betas(args, cfg.betas):
        rows.append(classify_regime(cfg.D, beta).row())
    _write_text(args.out, "\n".join(rows) + "\n")
    if args.out:
        print(f"predict: wrote {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    supplied = ("d_choices", "rel_ci_max", "k_min", "k_max")
    fit = fit_tail(args.csv, args.model,
                   **{k: getattr(args, k) for k in supplied if getattr(args, k) is not None})
    _write_json(args.out, asdict(fit))  # json writes the k_window tuple as a list
    if args.out:
        print(f"fit: wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jsqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON experiment config (or a sidecar from an earlier run)")
        p.add_argument("--service", choices=KINDS, help="service distribution kind")
        p.add_argument("--beta", type=float, help="tail exponent for lomax/pareto")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes, >= 1 (default 1)")
        p.add_argument("--out", required=True, help="output path stem")

    p = sub.add_parser("simulate", help="run the N-queue network simulator")
    add_common(p)
    p.add_argument("--n-queues", dest="N", type=int)
    p.add_argument("--d-choices", dest="D", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--warmup", dest="warmup_fraction", type=float)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--batches", dest="n_batches", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--pair-level", dest="pair_level", type=int,
                   help="also estimate the two-queue indicator covariance at this level")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cavity", help="run the cavity fixed-point iteration")
    add_common(p)
    p.add_argument("--d-choices", dest="D", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--cycles", dest="cycles_per_iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--damping", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--noise-rel", dest="noise_rel", type=float)
    p.add_argument("--shards", type=int)
    p.set_defaults(func=cmd_cavity)

    p = sub.add_parser("predict", help="regime classification and exponents")
    p.add_argument("--config", help="JSON config with mode=analytic, D, betas")
    p.add_argument("--d-choices", dest="D", type=int)
    p.add_argument("--beta", type=float, action="append")
    p.add_argument("--beta-grid", help="lo:hi:step inclusive grid")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fit", help="fit a tail model to a results CSV")
    p.add_argument("csv")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--d-choices", dest="d_choices", type=int)
    p.add_argument("--rel-ci-max", dest="rel_ci_max", type=float)
    p.add_argument("--k-min", dest="k_min", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RuntimeError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
