"""One benchmark sample in a fresh Python process.

Run as ``python3 child.py '<spec json>'``.  The spec's ``mode`` is one of

* ``setup``: import ``adlv.cli``, build the root datum and time the
  host-speed probe a few times;
* ``job``: set up, then time ``adlv.cli.main`` with stdout captured while a
  timer signal runs the host-speed probe every few tens of milliseconds;
* ``trace``: as ``job`` with the layer tracer installed around ``main`` and
  the probe run before and after it instead of during it;
* ``kernel``: time the elementary move on seeded random elements.

The last line of stdout is one JSON object with the sample.  Times that are
compared with the parent process's clock use CLOCK_MONOTONIC, which is
system-wide; durations use ``perf_counter``.
"""

import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Five signed permutation matrices that generate the 3,840 signed permutations
# of five letters: the probe multiplies 5x5 integer tuples and memoises them
# in a dict, as the adlv group kernel does, without importing adlv.
_PROBE_GENS = (
    ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, -1)),
)
PROBE_STEPS = 100
PROBE_EVERY_S = 0.03
PROBE_AROUND = 12


def host_probe():
    """Seconds for a fixed pure-Python task of about 3 ms that does not use adlv.

    The run divides each time it measures by the probe times taken alongside
    it, so a host that slows every process down does not move the reported
    value, while a change to adlv does.
    """
    start = time.perf_counter()
    seen = {}
    x = _PROBE_GENS[0]
    for i in range(PROBE_STEPS):
        g = _PROBE_GENS[(i * i + i // 7) % 5]
        cols = tuple(zip(*g))
        x = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in x)
        seen[x] = seen.get(x, 0) + 1
    if len(seen) < 2:
        raise AssertionError("host probe degenerated")
    return time.perf_counter() - start


class ProbeTicks:
    """Runs the host probe every PROBE_EVERY_S of wall time inside a block.

    The probe then samples the host over the same seconds as the job it
    interrupts; ``spent_s`` is the wall time the probes took from the block.
    """

    def __init__(self):
        self.times = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.times.append(host_probe())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def run_job(spec, out):
    import adlv.cli

    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    error = None
    exit_code = None
    # a traced job is not interrupted, so that probes add no time to its spans
    ticks = ProbeTicks() if tracer is None else contextlib.nullcontext()
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with ticks, contextlib.redirect_stdout(buf):
            exit_code = adlv.cli.main(spec["argv"])
    except Exception:
        error = traceback.format_exc()
    out["wall_s"] = time.perf_counter() - start
    out["cpu_s"] = time.process_time() - cpu_start
    if tracer is None:
        out["wall_s"] -= ticks.spent_s
        out["cpu_s"] -= ticks.spent_s
        out["probe_s"] = ticks.times
    else:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        out["class_key_misses"] = tracer.class_key_misses()
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    out["exit_code"] = exit_code
    out["error"] = error
    out["stdout"] = buf.getvalue()
    cache = spec.get("cache")
    out["cache_bytes"] = os.path.getsize(cache) if cache and os.path.exists(cache) else 0


def kernel_probe(spec, out):
    """Median microseconds of ``s * x * delta(s)`` followed by ``.length``."""
    from adlv.elements import DiagramAut, simple_reflections
    from adlv.roots import build_root_datum

    moves = {}
    for type_label in spec["kernel_types"]:
        datum = build_root_datum(type_label)
        delta = DiagramAut.identity(datum)
        refl = simple_reflections(datum)
        labels = list(refl)
        rng = random.Random(f"{spec['seed']}:{type_label}")
        samples = []
        for _ in range(spec["kernel_ops"]):
            x = refl[rng.choice(labels)]
            for _ in range(3 * datum.rank):
                x = x * refl[rng.choice(labels)]
            lab = rng.choice(labels)
            s, s2 = refl[lab], refl[delta.on_label(lab)]
            start = time.perf_counter()
            (s * x * s2).length
            samples.append(time.perf_counter() - start)
        moves[type_label] = statistics.median(samples) * 1e6
    out["move_us"] = moves


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    out = {"mode": spec["mode"]}
    if spec["mode"] == "kernel":
        kernel_probe(spec, out)
    else:
        import adlv.cli
        from adlv.roots import build_root_datum

        build_root_datum(spec["type"])
        out["setup_mark"] = monotonic()
        around = [host_probe() for _ in range(PROBE_AROUND)]
        out["setup_probe_s"] = around
        if spec["mode"] != "setup":
            run_job(spec, out)
        if spec["mode"] == "trace":
            out["probe_s"] = around + [host_probe() for _ in range(PROBE_AROUND)]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
