"""handsmooth benchmark: one workload, one closed-loop caller, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a handsmooth checkout; the program is imported from its
``src``. Set-up makes the workload's inputs from the seed with ``synth`` and
times a fresh interpreter's set-up (``setup_s``). The run then repeats the
workload's operation, checking every output, until the next one would end
after ``--seconds``. The last line of stdout is the result: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``, named and
with units as in BENCHMARK.json. The line before it is the full report.
Scratch files go to ``bench/work``. See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
SETUP_REPEATS = 7
PROBE_SHARE = 0.25  # of --seconds, for the layer probes of a traced run
CHECK_FRAMES = 5    # refine inputs: frames of the check_gradient probe
MB = 1e6

sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Failures,
    GradcheckOps,
    RefineOps,
    make_refine_input,
    tiny,
    window,
)


def import_handsmooth():
    src = ROOT / "src"
    if not (src / "handsmooth" / "__init__.py").is_file():
        raise SystemExit(f"bench: no handsmooth sources under {src}")
    sys.path.insert(0, str(src))
    import handsmooth
    import handsmooth.cli  # noqa: F401 - the package does not import its CLI

    if Path(handsmooth.__file__).resolve().parent != src / "handsmooth":
        raise SystemExit(f"bench: imported handsmooth from {handsmooth.__file__}, not {src}")
    return handsmooth


def stats(values) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    out = {"median": statistics.median(v), "n": n, "min": v[0], "max": v[-1]}
    if n >= 4:
        q1, _, q3 = statistics.quantiles(v, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        out["high"] = {"percentile": 100.0 * (n - 10) / n, "value": v[n - 11]}
    return out


def provenance() -> dict:
    import numpy

    src = ROOT / "src" / "handsmooth"
    files = sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        top, _, head = git.stdout.strip().partition("\n")
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(p.read_text().count("\n") for p in files if p.suffix == ".py"),
    }


def measure_setup(wl, seed, input_path, repeats) -> list:
    """Seconds from spawning a fresh interpreter to its objective being built."""
    args = [str(input_path)] if wl.kind == "refine" else [str(wl.frames), str(wl.views), str(seed)]
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), wl.kind, *args]
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def prepare(hs, wl, seed, failures, inject_failure):
    """Make the inputs; return (operations, problem for the layer probes)."""
    stem = WORK / f"{wl.name}-{seed}"
    if wl.kind == "refine":
        input_path = Path(f"{stem}-input.json")
        make_refine_input(hs, ROOT, wl, seed, input_path)
        ops = RefineOps(hs, wl, seed, WORK, failures, inject_failure)
        seq = hs.load_sequence(input_path)
        problem = SimpleNamespace(traj=seq.init, obs=seq.observations, skeleton=seq.skeleton,
                                  truth=seq.ground_truth, seq_path=input_path, seq=seq)
    else:
        traj, obs, skeleton = hs.random_problem(wl.frames, wl.views, seed)
        input_path = Path(f"{stem}-problem.json")
        hs.save_sequence(input_path, hs.SequenceFile.for_model(hs.DEFAULT_MODEL, skeleton, traj, obs))
        ops = GradcheckOps(hs, wl, seed, failures, inject_failure)
        problem = SimpleNamespace(traj=traj, obs=obs, skeleton=skeleton, truth=None,
                                  seq_path=input_path, seq=None)
    problem.size = (wl.frames, wl.views, seed)
    return ops, problem


def no_span(name):
    return contextlib.nullcontext()


def measure(ops, seconds, tracer=None, run_id=""):
    """Repeat the operation until the next one would end after ``seconds``.

    With a tracer, operations alternate untraced and traced in ABBA order, so
    both halves see the same drift. Returns (traced, Sample) per operation.
    """
    done = []
    walls = []
    t_end = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(done) % 4 in (1, 2)
        gc.collect()  # each operation starts from a clean heap, as a fresh process does
        if traced:
            tracer.run_id = f"{run_id}:{len(done)}"
            tracer.install()
        try:
            t0 = time.perf_counter()
            done.append((traced, ops.run(tracer.span if traced else no_span)))
            walls.append(time.perf_counter() - t0)
        finally:
            if traced:
                tracer.uninstall()
        if len(done) >= (2 if tracer else 1) and (
                time.perf_counter() + statistics.median(walls) > t_end):
            return done


def end_to_end(wl, samples) -> dict:
    """Timing samples of the end-to-end metrics."""
    if wl.kind == "refine":
        throughput = [wl.frames * wl.iters / s.smooth_s for s in samples if s.smooth_s]
    else:
        throughput = [wl.frames * s.evaluations / s.check_s for s in samples if s.check_s]
    return {
        "command_s": [s.command_s for s in samples if s.command_s],
        "frame_iters_per_s": throughput,
    }


def per_layer(hs, wl, problem, done, tracer, probe_budget) -> tuple:
    values = layers.probe_layers(hs, problem, probe_budget)
    plain = [sample for traced, sample in done if not traced]
    if wl.kind == "refine":
        values["smoother.iter_ms"] = statistics.median(
            s.smooth_s / wl.iters * 1e3 for s in plain if s.smooth_s)
        traj, obs = window(hs, problem.seq, CHECK_FRAMES)
    else:
        values["smoother.iter_ms"] = layers.smooth_iter_ms(hs, problem, probe_budget / 8)
        traj, obs = problem.traj, problem.obs
    values.update(layers.probe_check_gradient(hs, traj, obs, problem.skeleton))

    analysis = spans.Analysis(tracer.spans, tracer.gc_collected)
    primary = "smoother.smooth" if wl.kind == "refine" else "autodiff.check_gradient"
    pause_ms, freed = analysis.gc_per_tape_pass(primary)
    values["autodiff.gc_pause_ms"] = pause_ms
    values["autodiff.gc_collected"] = freed
    by_layer = analysis.self_by_layer("bench.command")
    for layer, ms in by_layer.items():
        values[f"{layer}.self_ms"] = ms

    overhead = {}
    e2e_plain = end_to_end(wl, plain)
    e2e_traced = end_to_end(wl, [sample for traced, sample in done if traced])
    for name, sign in (("command_s", 1), ("frame_iters_per_s", -1)):
        a = statistics.median(e2e_plain[name])
        b = statistics.median(e2e_traced[name])
        overhead[name] = {"untraced": a, "traced": b, "overhead_pct": sign * 100.0 * (b - a) / a}
        values[f"trace.{name}_overhead_pct"] = overhead[name]["overhead_pct"]
    detail = {
        "tracing_overhead": overhead,
        "self_ms_per_op": by_layer,
        "op_ms": statistics.median(
            analysis.dur[i] / 1e6 for i in analysis.roots("bench.command")),
        "self_ms_by_span": analysis.self_by_span("bench.command"),
        "spans_recorded": len(tracer.spans),
    }
    return values, detail


def result_line(kind: str, values: dict, attempted: int, failed: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end" if kind == "end_to_end" else "per_layer"]:
        if m["name"] not in values:
            raise SystemExit(f"bench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="selfcheck sizes")
    parser.add_argument("--inject-failure", action="store_true",
                        help="fail one check on purpose (selfcheck)")
    args = parser.parse_args(argv)

    hs = import_handsmooth()
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = tiny(wl)
    WORK.mkdir(exist_ok=True)
    failures = Failures(wl.name)
    ops, problem = prepare(hs, wl, args.seed, failures, args.inject_failure)
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "frames": wl.frames,
              "views": wl.views, "iters": wl.iters,
              "closed_loop": "one caller, one operation at a time",
              "provenance": provenance()}

    if args.trace:
        tracer = spans.Tracer(hs)
        probe_budget = PROBE_SHARE * args.seconds
        done = measure(ops, args.seconds - probe_budget, tracer, f"{wl.name}:{args.seed}")
        values, report["trace_detail"] = per_layer(hs, wl, problem, done, tracer, probe_budget)
        spans_path = WORK / f"spans-{wl.name}-{args.seed}.json"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup = measure_setup(wl, args.seed, problem.seq_path, 2 if args.tiny else SETUP_REPEATS)
        done = measure(ops, args.seconds)
        timings = {"setup_s": setup, **end_to_end(wl, [sample for _, sample in done])}
        report["timings"] = {k: stats(v) for k, v in timings.items()}
        values = {k: statistics.median(v) for k, v in timings.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    attempted, failed = len(done), sum(sample.failed for _, sample in done)
    report["failures"] = failures.items
    # reported by name and unit, but not in the result line: see bench/README.md
    report["not_gated"] = {"failed_frac": {"value": failed / attempted, "unit": "ratio"}}
    if wl.kind == "refine":
        report["outputs"] = ops.hashes
        quality = report["quality"] = ops.quality
        if quality:
            report["not_gated"].update(
                final_mpjpe_mm={"value": quality["final_mpjpe_mm"], "unit": "mm"},
                final_reproj_px={"value": quality["final_reproj_px"], "unit": "px"})
    report["metrics"] = {k: values[k] for k in sorted(values)}
    for item in failures.items:
        print(f"bench: FAILED {item['workload']} {item['op']}: {item['check']} "
              f"{item['detail']}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    line = result_line(kind, values, attempted, failed)
    (WORK / f"report-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    for path in WORK.glob(f"{wl.name}-{args.seed}-*.json"):
        path.unlink()  # inputs and outputs: up to 15 MB a run, remade from the seed
    return 0


if __name__ == "__main__":
    sys.exit(main())
