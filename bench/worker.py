"""One ``disconet`` subcommand in a fresh process, with timestamps.

Usage: python3 bench/worker.py STAMPS_JSON TRACE(0|1) -- <disconet argv>

Runs ``disconet.cli.main`` on the given argv and writes STAMPS_JSON with
monotonic timestamps (import start and end, config validation end, work
start and end), the exit code, the peak resident set size, the times of
the reference work run just before and just after the work phase and,
when traced, the per-layer metrics. The set-up phase ends when
``load_config`` returns; the reference work runs next, then the work
phase. The caller sets PYTHONPATH and the BLAS thread count.
"""

import json
import resource
import sys
import time


def peak_rss_mb():
    """High-water resident set of this process image.

    ``ru_maxrss`` would also count the parent's pages at spawn time, which
    exec carries over into the child's maximum, so read VmHWM instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s():
    """Seconds taken by a fixed piece of work, about 0.12 s on an undisturbed
    core: an interpreter loop, small dense-layer array passes and row
    scatter-adds, in equal parts. These are the kinds of work whose speed
    moves most with the machine's load."""
    import numpy as np

    a, w, b = np.full((1024, 32), 0.01), np.full((32, 32), 0.01), np.full((1, 32), 0.1)
    rows, ones, acc = np.arange(15360) % 1024, np.ones((15360, 1)), np.zeros((1024, 1))
    t = time.monotonic()
    total = 0
    for i in range(500_000):
        total += i * i
    for _ in range(150):
        h = np.maximum(a @ w + b, 0.0)
        g = np.array(h)
        np.all(np.isfinite(g))
        np.zeros_like(g) + g * (h > 0.0)
    for _ in range(150):
        np.add.at(acc, rows, ones)
    return time.monotonic() - t


def main():
    t_import0 = time.monotonic()
    stamps_path, traced = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    import disconet  # noqa: F401  (the whole package, as the entry point loads it)
    import disconet.cli as cli

    t_import1 = time.monotonic()
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install("disconet")
    stamps = {"import0": t_import0, "import1": t_import1, "module": disconet.__file__}
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        t = time.monotonic()
        config = load_config(*args, **kwargs)
        stamps["config1"] = time.monotonic()
        stamps["config_s"] = stamps["config1"] - t
        stamps["ref_s"] = [reference_s()]
        stamps["work0"] = time.monotonic()
        return config

    cli.load_config = timed_load_config
    stamps["rc"] = cli.main(argv)
    stamps["work1"] = time.monotonic()
    stamps["ref_s"].append(reference_s())
    stamps["maxrss_mb"] = peak_rss_mb()
    if tracer is not None:
        stamps["layers"] = tracer.report()
    with open(stamps_path, "w", encoding="utf8") as fh:
        json.dump(stamps, fh)


if __name__ == "__main__":
    main()
