"""In-memory span tracing around jsqlab's public functions.

``install`` replaces module attributes of an imported ``jsqlab`` with thin
wrappers that record one span per call (name, start, end, parent span) and
the few counters the per-layer metrics need. Nothing under ``src/`` changes;
the wrappers live in the benchmark's own files and are installed only in the
traced child process. Spans stay in memory until ``Recorder.dump`` writes
them out at the end of the run.

Which attribute to wrap follows how the library looks names up: ``cli``
imports its collaborators with ``from .x import y``, so those are wrapped in
the ``jsqlab.cli`` namespace; calls made inside ``network`` and ``cavity``
go through those modules' globals.

Pool workers of a ``--workers 2`` run are forked from the traced process and
inherit the wrappers, but their spans would die with them. The kernel
wrapper therefore attaches its draw count to the ``CycleStats`` it returns
(pickled back to the parent with the stats), and the sharded wrapper
collects it there.
"""

from __future__ import annotations

import functools
import json
import os
import time

# attribute carried on CycleStats from a (possibly forked) kernel call back to the parent
SHARD_INFO = "_bench_shard_info"


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.pid = os.getpid()
        self.spans: list = []  # [id, name, parent, start, end, attrs]
        self._stack: list = []
        self.draws = [0]  # incremented by every counted service draw in this process
        self.remote_draws = 0  # draws made in pool workers, shipped back with their stats

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped to record a span; ``attrs(result)`` adds span fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:  # forked pool worker: its spans could not be kept
                return fn(*args, **kwargs)
            span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                    time.perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(result)
            return result

        return wrapper

    def counting_make_sampler(self, make_sampler):
        """Wrap a sampler factory so every draw of the returned sampler is counted."""
        counter = self.draws

        @functools.wraps(make_sampler)
        def factory(spec):
            draw = make_sampler(spec)

            def counted(rng):
                counter[0] += 1
                return draw(rng)

            return counted

        return factory

    def dump(self, path) -> None:
        doc = {
            "trace_id": self.trace_id,
            "spans": [
                {"id": s[0], "name": s[1], "parent": s[2], "start": s[3], "end": s[4], "attrs": s[5]}
                for s in self.spans
            ],
            "draws": self.draws[0] + self.remote_draws,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def install(rec: Recorder, jsqlab) -> None:
    """Wrap the public functions of each jsqlab layer to record into ``rec``."""
    cli, network, cavity = jsqlab.cli, jsqlab.network, jsqlab.cavity

    def run_attrs(run):
        return {"runtime_s": run.runtime_s, "events": run.arrivals + run.departures}

    def sharded_attrs(stats):
        return {"n_cycles": stats.n_cycles, "n_aborted": stats.n_aborted,
                "total_time": stats.total_time, "max_level": stats.max_level}

    # cli layer: what cmd_simulate / cmd_cavity call directly
    cli.run_replication = rec.wrap("network.run_replication", cli.run_replication)
    cli.conservation_audit = rec.wrap("network.conservation_audit", cli.conservation_audit)
    cli.merge_estimates = rec.wrap("network.merge_estimates", cli.merge_estimates)
    cli.pair_dependence = rec.wrap("network.pair_dependence", cli.pair_dependence)
    cli.fixed_point = rec.wrap("cavity.fixed_point", cli.fixed_point)
    cli.write_tail_csv = rec.wrap("tails.write_tail_csv", cli.write_tail_csv)

    # network layer
    network.run_network = rec.wrap("network.run_network", network.run_network, run_attrs)
    network.derive_stream = rec.wrap("seeding.derive_stream", network.derive_stream)
    network.make_sampler = rec.counting_make_sampler(network.make_sampler)

    # cavity layer
    kernel = rec.wrap("cavity.simulate_cycles", cavity.simulate_cycles)
    draws = rec.draws

    @functools.wraps(kernel)
    def simulate_cycles(*args, **kwargs):
        before = draws[0]
        stats = kernel(*args, **kwargs)
        setattr(stats, SHARD_INFO, (os.getpid(), draws[0] - before))
        return stats

    sharded = rec.wrap("cavity.simulate_cycles_sharded", cavity.simulate_cycles_sharded, sharded_attrs)

    @functools.wraps(sharded)
    def simulate_cycles_sharded(*args, map_fn=map, **kwargs):
        def collecting_map(fn, jobs):
            for stats in map_fn(fn, jobs):
                pid, n = stats.__dict__.pop(SHARD_INFO, (rec.pid, 0))
                if pid != rec.pid:
                    rec.remote_draws += n
                yield stats

        return sharded(*args, map_fn=collecting_map, **kwargs)

    cavity.simulate_cycles = simulate_cycles
    cavity.simulate_cycles_sharded = simulate_cycles_sharded
    cavity.tail_from_cycles = rec.wrap("cavity.tail_from_cycles", cavity.tail_from_cycles)
    cavity.derive_stream = rec.wrap("seeding.derive_stream", cavity.derive_stream)
    cavity.make_sampler = rec.counting_make_sampler(cavity.make_sampler)
