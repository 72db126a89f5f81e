"""Interleaved A/B timing of one objective pass: a parent checkout against
this one.

    python3 tools/ab_pass.py PARENT_CHECKOUT

PARENT_CHECKOUT is any directory holding the parent's ``src/handsmooth``, for
example one made with ``git worktree add``. Its package is copied into a
temporary directory under the name ``handsmooth_parent`` and imported beside
this checkout's ``handsmooth``, so both run in one process on one machine
state. Each package builds its own inputs from the same seeds:

* ``accept``: one frozen-shape ``record_and_backprop`` pass (value and
  gradient, as ``smooth`` runs it) on the seed-3 accept-60f2v input of the
  benchmark;
* ``wide``: the same on the wide-240f8v input;
* ``gradcheck``: one ``check_gradient`` on ``random_problem(5, 2, s)``, with
  s the round number.

Each of 15 rounds times A, B, B, A (A is the parent), each the median of 5
calls, and takes the ratio parent / child of the two sums, so a ratio above
1 means the child is faster. Drift of the machine's speed within a round
cancels. The tool prints whether the child's loss and gradient bytes equal
the parent's on the accept and wide passes, and whether its tape-free
objective values equal the parent's on four blocks near
``random_problem(5, 2, 0)``, the route ``check_gradient`` takes: one
32-row block moves every coordinate, one keeps the shape block, one is built
as ``check_gradient`` builds one (single steps, the shape kept) with a
frame's values copied to another frame index, so frames repeat across rows
and indices, and the fourth is ``check_gradient``'s first 128-row block,
whose first 20 rows step the shape. It prints each side's tracemalloc peak
over one ``check_gradient`` on ``random_problem(5, 2, 0)``, which the block
size sets. Then it prints the median, min and max of the per-round ratios,
and writes nothing.

Unless both are already set, the tool first re-runs itself with glibc's
``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_`` fixed (in its own
process only) and says so. With glibc's defaults, memory a pass frees is
trimmed and faulted back in depending on heap layout, which moved the wide
ratio between about 0.95 and 1.10 with the working directory alone.
"""

import gc
import importlib
import importlib.util
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROUNDS, REPS = 15, 5
SEED = 3  # of the refine inputs
# Fixed thresholds: blocks under 4 MB come from the heap, and the heap gives
# memory back only when more than 100 MB at its top is free.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "4000000", "MALLOC_TRIM_THRESHOLD_": "100000000"}


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def refine_pass(hs, workloads, name, seed):
    """A zero-argument call of one frozen-shape tape pass on a bench input."""
    motion, noise = workloads.refine_input(hs, ROOT, workloads.WORKLOADS[name], seed)
    rng = np.random.default_rng(noise.seed)
    skeleton = hs.load_skeleton()
    gt, rig = hs.generate_sequence(motion, rng)
    init = hs.corrupt_trajectory(gt, noise, rng)
    obs = hs.render_observations(gt, rig, skeleton, noise, rng)
    objective = hs.make_flat_objective(obs, skeleton, optimize_shape=False)
    flat = init.to_flat()
    return lambda: hs.autodiff.record_and_backprop(objective, flat)


def pass_bytes(loss, grad):
    return np.float64(loss).tobytes() + grad.tobytes()


def gradcheck_pass(hs, seed):
    traj, obs, skeleton = hs.random_problem(5, 2, seed)
    objective = hs.make_flat_objective(obs, skeleton)
    flat = traj.to_flat()
    return lambda: hs.autodiff.check_gradient(objective, flat)


def tape_free_rows(hs, seed):
    """The bytes of the plain objective on four blocks near
    random_problem(5, 2, seed), as check_gradient calls it: a 32-row block
    that moves every coordinate, one that keeps the shape block, as most of
    check_gradient's blocks do, one of single +-h steps of frame
    coordinates, as check_gradient builds its blocks, whose first row has
    frame 1's values copied into frame 3, and check_gradient's first 128-row
    block, which steps the 10 shape coordinates and then frame coordinates."""
    traj, obs, skeleton = hs.random_problem(5, 2, seed)
    flat = traj.to_flat()
    block = flat + np.random.default_rng(seed).normal(0.0, 1e-3, (32, flat.size))
    shared = block.copy()
    shared[:, :10] = flat[:10]
    steps = np.tile(flat, (32, 1))
    rows = np.arange(32)
    steps[rows, 50 + rows // 2] += np.where(rows % 2, -1e-6, 1e-6)  # in frames 0 and 1
    steps[0, 10 + 3 * 51:10 + 4 * 51] = flat[10 + 51:10 + 2 * 51]
    first = np.tile(flat, (128, 1))
    rows = np.arange(128)
    first[rows, rows // 2] += np.where(rows % 2, -1e-6, 1e-6)
    objective = hs.make_flat_objective(obs, skeleton)
    return b"".join(
        hs.autodiff.value_of(objective(b)).tobytes() for b in (block, shared, steps, first)
    )


def check_peak_mb(hs):
    """tracemalloc's peak over one check_gradient on random_problem(5, 2, 0),
    after one untraced call, in MB."""
    check = gradcheck_pass(hs, 0)
    check()
    tracemalloc.start()
    try:
        check()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def median_time(fn, reps):
    gc.collect()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_parent(checkout, tmp):
    src = pathlib.Path(checkout) / "src" / "handsmooth"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"ab_pass: no src/handsmooth under {checkout}")
    shutil.copytree(src, pathlib.Path(tmp) / "handsmooth_parent",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, tmp)
    return importlib.import_module("handsmooth_parent")


def main(parent_checkout):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import handsmooth as child

    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        parent = import_parent(parent_checkout, tmp)
        calls = {
            name.split("-")[0]: [refine_pass(hs, workloads, name, SEED) for hs in (parent, child)]
            for name in ("accept-60f2v", "wide-240f8v")
        }
        for name, (a, b) in calls.items():
            same = pass_bytes(*a()) == pass_bytes(*b())
            print(f"{name:10s} loss and gradient bytes equal the parent's: {same}")
        same = tape_free_rows(parent, 0) == tape_free_rows(child, 0)
        print(f"{'gradcheck':10s} tape-free row bytes equal the parent's: {same}")
        peak_a, peak_b = check_peak_mb(parent), check_peak_mb(child)
        print(f"{'gradcheck':10s} tracemalloc peak of one check: "
              f"parent {peak_a:.2f} MB, child {peak_b:.2f} MB")
        ratios = {name: [] for name in ("accept", "wide", "gradcheck")}
        for r in range(ROUNDS):
            calls["gradcheck"] = [gradcheck_pass(hs, r) for hs in (parent, child)]
            for name, (a, b) in calls.items():
                ta = median_time(a, REPS)
                tb = median_time(b, REPS) + median_time(b, REPS)
                ta += median_time(a, REPS)
                ratios[name].append(ta / tb)
    print(f"parent / child time per pass, {ROUNDS} ABBA rounds of {REPS} reps")
    for name, rs in ratios.items():
        print(f"{name:10s} median {statistics.median(rs):.3f}  min {min(rs):.3f}  max {max(rs):.3f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    unset = {k: v for k, v in MALLOC_ENV.items() if k not in os.environ}
    if unset:
        print("ab_pass: re-running with " + " ".join(f"{k}={v}" for k, v in unset.items()), flush=True)
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **unset})
    main(sys.argv[1])
