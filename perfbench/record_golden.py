"""Record each workload's stdout and exit code as the golden output.

    python3 perfbench/record_golden.py [workload ...]

Run this only when a change is meant to alter the CLI output; every timed
and traced benchmark run is checked against these files.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, SRC, load_workloads, spawn, job_argv


def main():
    _, workloads = load_workloads()
    names = sys.argv[1:] or list(workloads)
    golden = BENCH_DIR / "golden"
    golden.mkdir(exist_ok=True)
    codes_path = golden / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    for name in names:
        workload = workloads[name]
        with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
            cache = str(Path(tmp) / "cache.jsonl")
            sample = spawn({"src": str(SRC), "type": workload["type"], "mode": "job",
                            "seed": 0, "cache": cache,
                            "argv": job_argv(workload, 0, cache)})
        if sample.get("error"):
            sys.exit(f"{name}: {sample['error']}")
        with open(golden / f"{name}.stdout", "w", encoding="utf-8", newline="") as fh:
            fh.write(sample["stdout"])
        codes[name] = sample["exit_code"]
        print(f"{name}: exit {sample['exit_code']}, {len(sample['stdout'])} chars")
    codes_path.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
