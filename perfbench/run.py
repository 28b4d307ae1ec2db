"""adlv benchmark: fresh-process CLI job time, and a traced per-layer run.

    python3 perfbench/run.py --workload ghkr-A3 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; ``src/`` must hold
the adlv sources.  Each repetition starts one fresh child Python process that
imports ``adlv.cli``, builds the workload's root datum, and times
``adlv.cli.main(argv)`` with stdout captured, so the module-global caches
start empty as they do for a CLI user.  The load is a closed loop with one
client: one child at a time.

``--trace 0`` repeats the job for ``--seconds`` and reports the median over
the repetitions of each end-to-end metric of ``BENCHMARK.json``, with times
scaled to a reference host speed by a probe timed in each child (see
``PROBE_REF_S``).  Every metric's median, quartiles and count, and the raw
times, go to the results file.  ``--trace 1`` runs the job once untraced and
once traced, times the elementary move on seeded random elements, and reports the per-layer
metrics.  Every run checks each child's stdout and exit code against the
golden files in ``perfbench/golden``.  The raw samples, quartiles and run
facts go to ``.perfbench_out/`` in the checkout; the last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_REPS = 3
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150
# Reference time, in seconds, of the host probe in child.py: about its mean on
# the shared 2-core Xeon host the golden outputs were recorded on.  There a
# process slows down by up to 1.5x in phases lasting from seconds to minutes,
# and CPU time slows with wall time, so the fastest or the median raw time of
# a 30-second run still drifts by more than a quarter between runs.  Each time
# measured is therefore multiplied by PROBE_REF_S over the mean probe time
# taken in the same child over the same seconds, and so is reported at this
# reference host speed.  The probe does not use adlv, so a change to adlv
# moves the reported times in full; the raw times go to the results file.
PROBE_REF_S = 0.003


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_workloads():
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec, {w["name"]: w for w in spec["workloads"]}


def load_golden(name):
    with open(BENCH_DIR / "golden" / f"{name}.stdout", encoding="utf-8", newline="") as fh:
        stdout = fh.read()
    with open(BENCH_DIR / "golden" / "exit_codes.json", encoding="utf-8") as fh:
        exit_code = json.load(fh)[name]
    return stdout, exit_code


def job_argv(workload, seed, cache):
    return [a.format(seed=seed, cache=cache) for a in workload["argv"]]


def spawn(spec, env_extra=None):
    """Run one child to completion and return its sample; a failure gives 'error'."""
    env = dict(os.environ)
    env.pop("ADLV_CACHE", None)  # the CLI would let it override --cache
    env.update(env_extra or {})
    spawned = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    sample = json.loads(lines[-1])
    if "setup_mark" in sample:
        # the probes right after set-up give the host speed of the set-up
        sample["raw_setup_s"] = sample.pop("setup_mark") - spawned
        probe = statistics.median(sample["setup_probe_s"])
        sample["setup_s"] = sample["raw_setup_s"] * PROBE_REF_S / probe
    if sample.get("probe_s"):
        # the probes taken during the job give its host speed
        sample["raw_wall_s"] = sample["wall_s"]
        sample["wall_s"] *= PROBE_REF_S / statistics.fmean(sample["probe_s"])
    return sample


def check(sample, workload, golden):
    """None when the sample's output matches the golden output, else why not."""
    if sample.get("error"):
        return sample["error"].strip().splitlines()[-1]
    stdout, exit_code = golden
    if sample["exit_code"] != exit_code:
        return f"exit code {sample['exit_code']}, expected {exit_code}"
    if sample["stdout"] != stdout:
        return "stdout differs from the golden output"
    if workload["argv"][0] == "sweep" and not stdout.endswith("# violations: 0\n"):
        return "sweep output does not end with '# violations: 0'"
    return None


def count_items(stdout):
    """Data rows: every line after the header that is not a '#' trailer."""
    return sum(1 for line in stdout.splitlines()[1:] if not line.startswith("#"))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def run_facts(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "adlv").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def base_spec(workload, mode, seed, run_dir, rep):
    cache = str(run_dir / f"cache-{rep}.jsonl")
    return {
        "src": str(SRC),
        "type": workload["type"],
        "mode": mode,
        "seed": seed,
        "cache": cache,
        "argv": job_argv(workload, seed, cache),
    }


def timed_run(args, workload, golden, metrics, run_dir):
    """Repeat the job for the given seconds; one end-to-end value per metric."""
    spawn(base_spec(workload, "setup", args.seed, run_dir, "warm"))  # writes .pyc
    samples, setup_samples, raw_setup, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        # a set-up-only child per round spreads the set-up samples over the run
        setup = spawn(base_spec(workload, "setup", args.seed, run_dir, "setup"))
        sample = spawn(base_spec(workload, "job", args.seed, run_dir, len(samples)))
        sample["failure"] = check(sample, workload, golden)
        if "stdout" in sample:
            sample["items"] = count_items(sample.pop("stdout"))
        samples.append(sample)
        for s in (setup, sample):
            if "setup_s" in s:
                setup_samples.append(s["setup_s"])
                raw_setup.append(s["raw_setup_s"])
        now = time.perf_counter()
        rounds.append(now - round_start)
        enough = len(samples) >= MIN_REPS or now - start >= args.seconds
        if enough and now - start + statistics.median(rounds) > args.seconds:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        sample = spawn(base_spec(workload, "setup", args.seed, run_dir, "setup"))
        if "setup_s" not in sample:
            break
        setup_samples.append(sample["setup_s"])
        raw_setup.append(sample["raw_setup_s"])

    good = [s for s in samples if s["failure"] is None]
    timed = good or [s for s in samples if "wall_s" in s]
    if not timed:
        raise SystemExit(f"no sample completed: {samples[0].get('error')}")
    series = {
        "wall_s": [s["wall_s"] for s in timed],
        "items_per_s": [s["items"] / s["wall_s"] for s in timed],
        "setup_s": setup_samples,
        "peak_rss_mb": [s["peak_rss_mb"] for s in timed],
    }
    summary = {name: summarize(series[name]) for name in metrics}
    summary["raw_wall_s"] = summarize([s["raw_wall_s"] for s in timed])
    summary["raw_setup_s"] = summarize(raw_setup)
    failed = len(samples) - len(good)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": summary[name]["median"], "unit": unit}
                    for name, unit in metrics.items()},
    }
    record = {
        "samples": samples,
        "setup_samples": setup_samples,
        "summary": summary,
        "failed_frac": failed / len(samples),
    }
    return result, record


def layer_metric(name, traced, untraced, kernel):
    """Value of one per-layer metric from a traced sample."""
    layers = traced["layers"]
    special = {
        "elements.length.computed": lambda: layers["elements.length"]["extra"],
        "conjugacy.class_key.misses": lambda: traced["class_key_misses"],
        "hecke.table.hit_ratio": lambda: (
            layers["hecke.table"]["childless"] / layers["hecke.table"]["calls"]
            if layers["hecke.table"]["calls"] else 0.0
        ),
        "hecke.search_nodes": lambda: layers["hecke.descent_options"]["extra"],
        "cli.cache.save_s": lambda: layers["cli.cache.save"]["incl_s"],
        "cli.cache.preload_s": lambda: layers["cli.cache.preload"]["incl_s"],
        "cli.cache.bytes_written": lambda: traced["cache_bytes"],
        "cli.output_bytes": lambda: len(traced["stdout"].encode("utf-8")),
        "trace.overhead": lambda: traced["wall_s"] / untraced["wall_s"],
    }
    if name in special:
        return special[name]()
    if name.startswith("elements.move_us."):
        return kernel["move_us"][name.rsplit(".", 1)[1]]
    base, field = name.rsplit(".", 1)
    return layers[base][field]


def traced_run(args, bench, workload, golden, metrics, run_dir, name):
    """One untraced and one traced job plus the kernel probe; per-layer metrics."""
    spawn(base_spec(workload, "setup", args.seed, run_dir, "warm"))
    untraced = spawn(base_spec(workload, "job", args.seed, run_dir, "untraced"))
    spec = base_spec(workload, "trace", args.seed, run_dir, "traced")
    spans_path = OUT_DIR / f"{name}.spans.json"
    spec["spans_out"] = str(spans_path)
    traced = spawn(spec)
    kernel = spawn({"src": str(SRC), "mode": "kernel", "seed": args.seed,
                    "kernel_types": bench["kernel_types"],
                    "kernel_ops": bench["kernel_ops"]})
    failures = [check(untraced, workload, golden), check(traced, workload, golden),
                kernel.get("error")]
    failed = sum(f is not None for f in failures)
    if "layers" not in traced or "wall_s" not in untraced or "move_us" not in kernel:
        raise SystemExit(f"traced run did not complete: {[f for f in failures if f]}")
    values = {name: layer_metric(name, traced, untraced, kernel) for name in metrics}
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metrics.items()},
    }
    record = {
        "failures": failures,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "probe_s": {"untraced": untraced.get("probe_s"), "traced": traced.get("probe_s")},
        "layers": traced["layers"],
        "move_us": kernel["move_us"],
        "spans_file": spans_path.name,
    }
    return result, record


def run_name(args):
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"


def parse_args(names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main():
    bench, workloads = load_workloads()
    args = parse_args(sorted(workloads))
    if not (SRC / "adlv" / "cli.py").is_file():
        sys.exit(f"error: no adlv sources at {SRC}; run inside a full checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m["unit"] for m in declared[kind]}
    workload = workloads[args.workload]
    golden = load_golden(args.workload)

    name = run_name(args)
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"tmp-{os.getpid()}"
    run_dir.mkdir()
    try:
        if args.trace:
            result, record = traced_run(args, bench, workload, golden, metrics, run_dir, name)
        else:
            result, record = timed_run(args, workload, golden, metrics, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    facts = run_facts(args)
    facts["argv"] = job_argv(workload, args.seed, "<per-run temp file>")
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"run": facts, "result": result, **record}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
