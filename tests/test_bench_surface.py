"""The benchmark under bench/ drives handsmooth through its public names.

These checks resolve every name the benchmark looks up, so a change to the
package that would break the benchmark fails here first.
"""

import ast
import importlib.util
import pathlib
from types import SimpleNamespace

import numpy as np

import handsmooth as hs
import handsmooth.cli  # noqa: F401 - the benchmark patches cli.main

BENCH = pathlib.Path(__file__).parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_chains(source):
    """Dotted attribute chains the source reads from the package: rooted at
    ``hs`` or ``self.hs``, or at a name bound to such a chain."""
    tree = ast.parse(source)

    def chain(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        parts.reverse()
        return parts[1:] if parts[:2] == ["self", "hs"] else parts

    aliases = {"hs": ()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                     else [(target, value)])
            for name, bound in pairs:
                c = chain(bound)
                if isinstance(name, ast.Name) and c[:1] == ["hs"] and len(c) > 1:
                    aliases[name.id] = tuple(c[1:])
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            c = chain(node)
            if c and c[0] in aliases and len(c) > 1:
                found.add(aliases[c[0]] + tuple(c[1:]))
    return found


def test_span_patches_resolve():
    spans = load_bench_module("spans")
    assert spans.PATCHES
    for module_name, attr, _ in spans.PATCHES:
        assert callable(getattr(getattr(hs, module_name), attr)), (module_name, attr)


def test_names_the_benchmark_reads_resolve():
    for path in sorted(BENCH.glob("*.py")):
        chains = package_chains(path.read_text())
        if path.name == "layers.py":
            assert ("autodiff", "record_and_backprop") in chains
        for c in chains:
            obj = hs
            for i, part in enumerate(c):
                assert hasattr(obj, part), f"{path.name}: hs.{'.'.join(c[:i + 1])}"
                obj = getattr(obj, part)


def test_tape_nodes_are_the_tensors_recorded():
    # layers.py builds Tensor(value, tape), counts tape.nodes and sums their sizes
    ad = hs.autodiff
    tape = ad.Tape()
    leaf = ad.Tensor(np.ones(3), tape)
    out = (leaf * 2.0)[0]
    assert len(tape.nodes) == 3 and tape.nodes[0] is leaf and tape.nodes[-1] is out
    assert sum(t.value.nbytes for t in tape.nodes) == 8 * (3 + 3 + 1)


def test_layer_probes_run(tmp_path):
    # the probe counts are not pinned: only that every probe runs and reads
    # a finite number on a small problem
    layers = load_bench_module("layers")
    traj, obs, skeleton = hs.random_problem(5, 2, 0)
    seq_path = tmp_path / "problem.json"
    hs.save_sequence(seq_path, hs.SequenceFile.for_model(hs.DEFAULT_MODEL, skeleton, traj, obs))
    problem = SimpleNamespace(traj=traj, obs=obs, skeleton=skeleton, truth=None,
                              seq_path=seq_path, size=(5, 2, 0))
    values = layers.probe_layers(hs, problem, 1e-3)
    values.update(layers.probe_check_gradient(hs, traj, obs, skeleton))
    assert "camera.project_ms" in values and "autodiff.fd_evals" in values
    for name, value in values.items():
        assert np.isfinite(value), name
