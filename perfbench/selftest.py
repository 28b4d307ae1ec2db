"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py [workload ...]

Checks that
* the tracer rebinds every target and restores every original;
* a traced run's stdout equals the golden output;
* two traced runs under different PYTHONHASHSEED give identical counts;
* the traced layers rank as the workloads were chosen to show;
* run.py refuses to run, without printing a result, in a directory that
  holds only BENCHMARK.json and perfbench/.
"""

import shutil
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, SRC, base_spec, check, load_golden, \
    load_workloads, spawn

# workload -> (layer, time field, callers excluded from the comparison)
RANKING = {
    "ghkr-A3": ("dimension.defect_basic", "incl_s",
                {"cli.main", "dimension.ghkr_check", "dimension.virtual_dimension"}),
    "pathind-A2": ("hecke.descent_options", "incl_s", {"cli.main", "hecke.table"}),
    "classify-D5": ("roots.weyl_mul", "self_s", set()),
}
COUNT_FIELDS = ("calls", "childless", "extra")


def counts(sample):
    out = {f"{name}.{field}": layer[field]
           for name, layer in sample["layers"].items() for field in COUNT_FIELDS}
    out["class_key_misses"] = sample["class_key_misses"]
    out["cache_bytes"] = sample["cache_bytes"]
    return out


def check_restore():
    sys.path.insert(0, str(SRC))
    import adlv.cli  # noqa: F401
    from tracer import Tracer

    def snapshot():
        mods = [m for k, m in sys.modules.items() if k == "adlv" or k.startswith("adlv.")]
        names = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        classes = {(m.__name__, k, a): v for m in mods for k, c in vars(m).items()
                   if isinstance(c, type) for a, v in vars(c).items()}
        return names, classes

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    during = snapshot()
    tracer.uninstall()
    after = snapshot()
    changed = [key for part in (0, 1) for key, value in before[part].items()
               if during[part][key] is not value]
    restored = all(after[part][key] is value
                   for part in (0, 1) for key, value in before[part].items())
    # cli, conjugacy and the package namespace all hold reduce_to_minimal
    rebound = {key for key in changed if key[-1] == "reduce_to_minimal"}
    ok = restored and len(rebound) >= 3
    print(f"tracer: {len(changed)} bindings wrapped, restored={restored}, "
          f"reduce_to_minimal rebound in {len(rebound)} namespaces")
    return ok


def check_workload(name, workload):
    golden = load_golden(name)
    run_dir = OUT_DIR / "selftest"
    run_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    for hash_seed in ("0", "1"):
        spec = base_spec(workload, "trace", 1, run_dir, f"{name}-{hash_seed}")
        samples.append(spawn(spec, {"PYTHONHASHSEED": hash_seed}))
    ok = True
    for sample in samples:
        failure = check(sample, workload, golden)
        if failure:
            print(f"{name}: traced output wrong: {failure}")
            return False
    a, b = counts(samples[0]), counts(samples[1])
    diff = sorted(k for k in a if a[k] != b[k])
    if diff:
        print(f"{name}: counts differ between hash seeds: {diff}")
        ok = False
    layers = samples[0]["layers"]
    if name in RANKING:
        layer, field, callers = RANKING[name]
        top = max((n for n in layers if n not in callers), key=lambda n: layers[n][field])
        if top != layer:
            print(f"{name}: largest {field} is {top}, expected {layer}")
            ok = False
    if name.startswith("classify-"):
        busy = [n for n in layers if n.startswith(("hecke.", "dimension."))
                and layers[n]["calls"]]
        if busy:
            print(f"{name}: unexpected calls in {busy}")
            ok = False
    print(f"{name}: {'ok' if ok else 'FAILED'} ({len(a)} counts compared)")
    return ok


def check_bare_directory():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-D5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"bare directory: exit {proc.returncode}, {'ok' if ok else 'FAILED'}")
    return ok


def main():
    _, workloads = load_workloads()
    names = sys.argv[1:] or list(workloads)
    results = [check_restore()]
    results += [check_workload(name, workloads[name]) for name in names]
    results.append(check_bare_directory())
    shutil.rmtree(OUT_DIR / "selftest", ignore_errors=True)
    print("selftest:", "PASS" if all(results) else "FAIL")
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
