"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names ``src`` (the directory holding the ``jsqlab`` package),
``argv`` (the ``jsqlab`` command line), ``trace`` (bool), ``result`` (where
to write the result document) and ``spans`` (where a traced run writes its
spans). Only the standard library is imported before the set-up clock
starts, so ``setup_s`` is the cost of importing ``jsqlab.cli`` and parsing
the workload's argv.
"""

import json
import os
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import jsqlab.cli

    import_s = time.perf_counter() - t0
    jsqlab.cli.build_parser().parse_args(spec["argv"])
    setup_s = time.perf_counter() - t0

    if not os.path.abspath(jsqlab.__file__).startswith(src + os.sep):
        print(f"jsqlab was imported from {jsqlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    entry = jsqlab.cli.main
    rec = None
    if spec["trace"]:
        import jsqlab.cavity
        import jsqlab.network
        import spans

        rec = spans.Recorder(trace_id=spec["trace_id"])
        spans.install(rec, jsqlab)
        entry = rec.wrap("cli.main", entry)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    w0 = time.perf_counter()
    rc = entry(spec["argv"])
    wall_s = time.perf_counter() - w0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    if rec is not None:
        rec.dump(spec["spans"])

    import numpy
    import scipy

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "child_cpu_s": _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest reaped child
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
