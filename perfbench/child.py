"""
Run one c4free CLI command in this fresh interpreter and write what it cost.

    python3 perfbench/child.py STATS.json --setup-only
    python3 perfbench/child.py STATS.json [--trace] -- verify-th1 --m 9 ...

`src` of the checkout must be on PYTHONPATH. STATS.json receives the
perf_counter reading at which `c4free.cli` was imported and ready, and for a
command also its exit code, the start and end of `cli.main`, the CPU seconds
and peak RSS of this process and its worker processes, and with --trace the
per-layer metrics. perf_counter is the system-wide monotonic clock on Linux,
so the parent can subtract its own reading taken before the spawn.
"""

import sys
import time


def peak_rss_kb(fallback_kb):
    """Peak resident set of this process image, in kB. ru_maxrss is only the
    fallback: on Linux it keeps, across exec, the peak of the process that
    forked this one, so it would report the benchmark runner whenever the
    runner is the larger."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return fallback_kb


def main(argv):
    stats_path, flags = argv[0], argv[1:]
    import c4free.cli as cli

    ready = time.perf_counter()
    import json
    import resource
    import traceback

    stats = {"ready": ready}
    if flags != ["--setup-only"]:
        trace = flags[0] == "--trace"
        cmd = flags[flags.index("--") + 1 :]
        tracer = None
        if trace:
            import layers

            tracer = layers.Tracer()
            layers.install(tracer)
        start = time.perf_counter()
        try:
            rc = cli.main(cmd)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the command is a failed operation, not of the benchmark
            traceback.print_exc()
            rc = 1
        end = time.perf_counter()
        sys.stdout.flush()
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        stats.update(
            rc=rc,
            start=start,
            end=end,
            cpu_s=own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            peak_rss_kb=max(peak_rss_kb(own.ru_maxrss), kids.ru_maxrss),
        )
        if tracer is not None:
            stats["layers"] = tracer.layer_metrics()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
