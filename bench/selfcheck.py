"""Fast self-check of the benchmark at tiny sizes (under a minute).

    python3 bench/selfcheck.py

- Every workload runs in both trace modes with ``--tiny``. The last line must
  be the result, with exactly the keys correct, attempted, failed and metrics.
  It must hold every metric that BENCHMARK.json lists for that mode, with its
  unit and a finite value, and it must report no failures.
- A run with ``--inject-failure`` must count the failing check in ``failed``
  and in the report's ``failed_frac``, name the workload and operation, and
  still exit 0.
- A copy holding only BENCHMARK.json and bench/ must exit non-zero without
  printing a result.

Exits 1 and lists the problems when any of these does not hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--seed", "3", "--seconds", "2", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout: str, index: int = -1):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[index])
    except (IndexError, json.JSONDecodeError):
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    first = spec["workloads"][0]["name"]

    for wl in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{wl['name']} --trace {trace}"
            done = run(["--workload", wl["name"], "--trace", str(trace), "--tiny"])
            result = last_json(done.stdout)
            if done.returncode != 0 or result is None:
                problems.append(f"{where}: exit {done.returncode}, no result\n{done.stderr[-2000:]}")
                continue
            if set(result) != KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed\n"
                                f"{done.stderr[-2000:]}")
            expected = {m["name"]: m["unit"] for m in listed}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
            print(f"ok   {where}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations", flush=True)

    done = run(["--workload", first, "--trace", "0", "--tiny", "--inject-failure"])
    result, report = last_json(done.stdout), last_json(done.stdout, -2)
    if done.returncode != 0 or result is None or report is None:
        problems.append(f"injected failure: exit {done.returncode}, no result")
    elif (result["failed"] < 1 or result["correct"]
          or not report["not_gated"]["failed_frac"]["value"] > 0):
        problems.append(f"injected failure not counted: {result} {report['not_gated']}")
    elif not any(f["workload"] == first and f["op"] for f in report["failures"]):
        problems.append(f"injected failure does not name workload and op: {report['failures']}")
    else:
        print(f"ok   injected failure counted: {result['failed']} of {result['attempted']} failed")

    bare = BENCH / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(["--workload", first, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        problems.append(f"without sources: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    else:
        print(f"ok   without sources: exit {done.returncode}, no result")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
