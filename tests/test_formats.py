"""File formats: JSON schemas, round trips, and error reporting."""

import contextlib
import io
import json
import re

import numpy as np
import pytest

import handsmooth as hs
from handsmooth.cli import build_parser, main
from handsmooth.errors import SchemaError, SpecError
from handsmooth.formats import (
    SEQUENCE_SCHEMA_VERSION,
    SequenceFile,
    dump_json,
    read_json,
    record_from_dict,
    record_to_dict,
    rig_from_dict,
    rig_to_dict,
    sequence_from_dict,
)
from handsmooth.hand_model import DEFAULT_MODEL, default_model_dict
from handsmooth.metrics import MetricReport
from handsmooth.smoother import LossEntry

from conftest import FIXTURES, constant_velocity_motion, exact_sequence, load_gen_fixtures


def make_sequence_file(num_frames=4, with_gt=True):
    gt, init, obs, skeleton = exact_sequence(constant_velocity_motion(num_frames))
    return SequenceFile.for_model(
        DEFAULT_MODEL, skeleton, init, obs, ground_truth=gt if with_gt else None
    )


def assert_same_sequence(a: SequenceFile, b: SequenceFile):
    assert a.skeleton_ref == b.skeleton_ref
    assert np.array_equal(a.init.to_flat(), b.init.to_flat())
    assert np.array_equal(a.observations.landmarks_2d, b.observations.landmarks_2d)
    assert np.array_equal(a.observations.visibility, b.observations.visibility)
    if a.ground_truth is None:
        assert b.ground_truth is None
    else:
        assert np.array_equal(a.ground_truth.to_flat(), b.ground_truth.to_flat())
    assert len(a.rig.views) == len(b.rig.views)
    for (i1, e1), (i2, e2) in zip(a.rig.views, b.rig.views):
        assert i1 == i2
        assert np.array_equal(e1.rotation, e2.rotation)
        assert np.array_equal(e1.translation, e2.translation)


class TestDumpJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "out.json"
        dump_json({"b": 1, "a": 2}, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_streamed_text_equals_dumps(self, tmp_path):
        # tens of thousands of encoder chunks: several write batches
        obj = {"z": [[i / 7.0, -i] for i in range(20000)], "a": {"k": None, "b": True}}
        path = tmp_path / "out.json"
        dump_json(obj, path)
        expected = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert path.read_text() == expected

    @pytest.mark.parametrize(
        "bad, error",
        [(float("nan"), ValueError), (float("inf"), ValueError), (object(), TypeError)],
    )
    def test_rejects_value_and_leaves_no_file(self, tmp_path, bad, error):
        path = tmp_path / "bad.json"
        with pytest.raises(error):
            dump_json({"a": list(range(50000)), "x": bad}, path)
        assert not path.exists()

    def test_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            dump_json({"x": float("nan")}, tmp_path / "bad.json")

    @pytest.mark.parametrize(
        "array",
        [
            np.linspace(-1.0, 1.0, 5) / 3.0,
            np.arange(12.0).reshape(3, 4) / 7.0,
            np.arange(24.0).reshape(2, 3, 4) / 7.0,
            np.arange(24.0).reshape(2, 3, 2, 2) / 7.0,
            np.array([[True, False, True], [False, False, True]]),
            np.zeros((0,)),
            np.zeros((2, 0)),
            np.zeros((2, 0, 3)),
            np.zeros((2, 0), dtype=bool),
            np.array([-0.0, 5e-324, 1e16, 1e22, 0.1]),
            (np.arange(12.0).reshape(3, 4) / 7.0).T,
            (np.arange(30.0).reshape(5, 6) / 7.0)[::2, 1::3],
            np.random.default_rng(0).standard_normal((240, 8, 21, 2)),
            # neither float nor bool: written from its tolist()
            np.arange(6).reshape(2, 3),
            np.array(1.5),
            np.float32([0.1, 2.5]),
        ],
        ids=lambda a: f"{a.dtype}{a.shape}",
    )
    def test_array_text_equals_dumps_of_tolist(self, tmp_path, array):
        obj = {"b": {"array": array, "k": [1, None]}, "a": array, "x": 0.5}
        plain = {"b": {"array": array.tolist(), "k": [1, None]}, "a": array.tolist(), "x": 0.5}
        path = tmp_path / "out.json"
        dump_json(obj, path)
        expected = json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert path.read_text() == expected
        dump_json(array, path)
        assert path.read_text() == json.dumps(array.tolist(), indent=2) + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_array_and_leaves_no_file(self, tmp_path, bad):
        array = np.ones((50, 3, 2))
        array[49, 2, 1] = bad
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            dump_json({"a": np.ones((100, 2)), "b": array}, path)
        assert not path.exists()

    def test_read_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for content in (
            b"{not json",
            b"\xff\xfe{}",  # a UTF-16 byte-order mark, not UTF-8
            b"[" * 100_000,  # nests deeper than the decoder recurses
        ):
            path.write_bytes(content)
            with pytest.raises(SchemaError, match="broken.json: not valid JSON"):
                read_json(path)


class TestFixturesLoad:
    def test_motion_specs(self, fixtures_dir):
        for name in ("motion_demo.json", "acceptance_motion.json"):
            spec = hs.load_motion_spec(fixtures_dir / name)
            assert spec.num_frames >= 3

    def test_noise_specs(self, fixtures_dir):
        for name in ("noise_demo.json", "acceptance_noise.json"):
            spec = hs.load_noise_spec(fixtures_dir / name)
            assert spec.sigma_position >= 0.0

    def test_sequence(self, fixtures_dir):
        seq = hs.load_sequence(fixtures_dir / "sequence_small.json")
        assert seq.init.num_frames == 3
        assert seq.ground_truth is not None
        assert seq.observations.landmarks_2d.shape == (3, 1, 21, 2)

    def test_loss_report(self, fixtures_dir):
        report = read_json(fixtures_dir / "loss_report.json")
        entries = [record_from_dict(LossEntry, e, "entries") for e in report["entries"]]
        assert len(entries) == 3  # 2 iterations plus the final snapshot
        for name in ("initial_metrics", "final_metrics"):
            record_from_dict(MetricReport, report[name], name)

    def test_metric_report(self, fixtures_dir):
        d = read_json(fixtures_dir / "metric_report.json")
        report = record_from_dict(MetricReport, d, "metric_report")
        assert report.reproj_px >= 0.0
        assert record_to_dict(report) == d

    def test_generator_reproduces_every_fixture_byte_for_byte(
        self, fixtures_dir, tmp_path, capsys
    ):
        gen = load_gen_fixtures()
        # main() writes seven fixtures; the eighth, the gradient oracle, is
        # recorded once and never regenerated, so it is not compared here,
        # and a stray one in the output directory is neither touched nor
        # reported as written
        stray = tmp_path / gen.GRADIENT_ORACLE
        stray.write_text("stray\n")
        gen.main(tmp_path)
        committed = sorted(p.name for p in fixtures_dir.iterdir())
        assert len(committed) == 8 and gen.GRADIENT_ORACLE in committed
        committed.remove(gen.GRADIENT_ORACLE)
        assert stray.read_text() == "stray\n"
        assert sorted(p.name for p in tmp_path.iterdir() if p != stray) == committed
        printed = capsys.readouterr().out.splitlines()
        assert sorted(line.split()[1] for line in printed) == [
            str(tmp_path / name) for name in committed
        ]
        for name in committed:
            assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name


class TestSequenceRoundTrip:
    def test_save_load_identity(self, tmp_path):
        seq = make_sequence_file()
        path = tmp_path / "seq.json"
        hs.save_sequence(path, seq)
        assert_same_sequence(seq, hs.load_sequence(path))

    def test_missing_ground_truth_reads_as_none(self, tmp_path):
        seq = make_sequence_file(with_gt=False)
        path = tmp_path / "seq.json"
        hs.save_sequence(path, seq)
        again = hs.load_sequence(path)
        assert again.ground_truth is None
        assert_same_sequence(seq, again)

    def test_inline_skeleton(self, tmp_path, skeleton):
        seq = make_sequence_file()
        inline = SequenceFile(
            skeleton=skeleton,
            skeleton_ref={"inline": record_to_dict(skeleton)},
            init=seq.init,
            observations=seq.observations,
            ground_truth=seq.ground_truth,
        )
        path = tmp_path / "inline.json"
        hs.save_sequence(path, inline)
        again = hs.load_sequence(path)
        assert "inline" in again.skeleton_ref
        assert np.array_equal(again.skeleton.rest_offsets, skeleton.rest_offsets)
        assert np.array_equal(again.skeleton.parents, skeleton.parents)

    def test_rig_round_trip_is_exact(self):
        seq = make_sequence_file()
        rig = rig_from_dict(rig_to_dict(seq.rig))
        for (i1, e1), (i2, e2) in zip(seq.rig.views, rig.views):
            assert i1 == i2
            assert np.array_equal(e1.rotation, e2.rotation)
            assert np.array_equal(e1.translation, e2.translation)

    def test_motion_spec_round_trip(self, tmp_path, fixtures_dir):
        spec = hs.load_motion_spec(fixtures_dir / "acceptance_motion.json")
        path = tmp_path / "motion.json"
        hs.save_motion_spec(path, spec)
        assert record_to_dict(hs.load_motion_spec(path)) == record_to_dict(spec)

    def test_noise_spec_round_trip(self, tmp_path, fixtures_dir):
        spec = hs.load_noise_spec(fixtures_dir / "acceptance_noise.json")
        path = tmp_path / "noise.json"
        hs.save_noise_spec(path, spec)
        assert hs.load_noise_spec(path) == spec


class TestSequenceSchemaErrors:
    def test_missing_version(self):
        d = make_sequence_file().to_dict()
        del d["version"]
        with pytest.raises(SchemaError, match="missing key 'version'"):
            sequence_from_dict(d)

    def test_wrong_version(self):
        d = make_sequence_file().to_dict()
        d["version"] = "99"
        with pytest.raises(SchemaError, match="version"):
            sequence_from_dict(d)
        assert d["version"] != SEQUENCE_SCHEMA_VERSION

    def test_unknown_model_name(self):
        d = make_sequence_file().to_dict()
        d["skeleton"] = {"model": "no_such_hand"}
        with pytest.raises(SchemaError, match="skeleton.model"):
            sequence_from_dict(d)

    def test_non_object_skeleton_ref(self):
        d = make_sequence_file().to_dict()
        d["skeleton"] = "default"
        with pytest.raises(SchemaError, match="skeleton"):
            sequence_from_dict(d)

    def test_ground_truth_frame_mismatch(self):
        d = make_sequence_file(num_frames=4).to_dict()
        short = make_sequence_file(num_frames=3).to_dict()
        d["ground_truth"] = short["ground_truth"]
        with pytest.raises(SchemaError, match="ground_truth has 3 frames"):
            sequence_from_dict(d)

    def test_observation_frame_mismatch(self):
        d = make_sequence_file(num_frames=4).to_dict()
        for key in ("landmarks_2d", "visibility"):
            d["observations"][key] = d["observations"][key][:3]
        with pytest.raises(SchemaError, match="observations cover 3"):
            sequence_from_dict(d)

    def test_missing_rig_views(self):
        d = make_sequence_file().to_dict()
        d["rig"] = {}
        with pytest.raises(SchemaError, match="rig: missing key 'views'"):
            sequence_from_dict(d)

    def test_malformed_init_block(self):
        d = make_sequence_file().to_dict()
        del d["init"]["positions"]
        with pytest.raises(SchemaError, match="init: missing key 'positions'"):
            sequence_from_dict(d)

    @pytest.mark.parametrize(
        "mutate, where",
        [
            (lambda d: d["init"].update(joint_rotations=0.5), "sequence.init"),
            # JSON 1e400 reads as infinity
            (
                lambda d: d["rig"]["views"][0]["intrinsics"].update(width=float("inf")),
                "sequence.rig.views[0].intrinsics.width",
            ),
            # an integer literal too large for any float
            (lambda d: d["init"]["positions"][0].__setitem__(0, 10**400), "sequence.init"),
            (
                lambda d: d["observations"]["landmarks_2d"][0][0][0].__setitem__(0, 10**400),
                "sequence.observations",
            ),
        ],
    )
    def test_unconvertible_value(self, tmp_path, mutate, where):
        # the file object as load_sequence parses it: nested lists, not arrays
        path = tmp_path / "seq.json"
        hs.save_sequence(path, make_sequence_file())
        d = read_json(path)
        mutate(d)
        with pytest.raises(SchemaError, match="^" + re.escape(where) + ": "):
            sequence_from_dict(d)

    def test_overflowing_inline_skeleton(self, skeleton):
        d = make_sequence_file().to_dict()
        inline = record_to_dict(skeleton)
        inline["rest_offsets"][1][0] = 10**400  # an integer literal no float holds
        d["skeleton"] = {"inline": inline}
        with pytest.raises(SchemaError):
            sequence_from_dict(d)

    @pytest.mark.parametrize(
        "load, spec, key, value",
        [
            (hs.load_motion_spec, constant_velocity_motion(8), "num_frames", float("inf")),
            (hs.load_motion_spec, constant_velocity_motion(8), "wrist", "line"),
            (hs.load_noise_spec, hs.NoiseSpec(), "seed", float("inf")),
        ],
    )
    def test_malformed_spec(self, tmp_path, load, spec, key, value):
        d = record_to_dict(spec)
        d[key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="spec.json"):
            load(path)

    def test_non_object_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[]")
        for load in (hs.load_motion_spec, hs.load_noise_spec):
            with pytest.raises(SchemaError, match="spec.json: expected an object"):
                load(path)

    def test_load_reports_file_path(self, tmp_path):
        path = tmp_path / "bad_sequence.json"
        path.write_text(json.dumps({"version": "1"}) + "\n")
        with pytest.raises(SchemaError, match="bad_sequence"):
            hs.load_sequence(path)


def view0(d, part):
    return d["rig"]["views"][0][part]


def set_inline_parent(d):
    model = default_model_dict()
    model["parents"][2] = 1.6  # joint 2's parent is 1, which truncation would keep
    d["skeleton"] = {"inline": model}


def set_rotation_strings(d):
    extr = view0(d, "extrinsics")
    extr["rotation"] = [[repr(x) for x in row] for row in extr["rotation"]]


def set_first(name, value):
    """Set the first scalar of observations' array ``name`` to ``value``."""
    def mutate(d):
        a = d["observations"][name]
        while isinstance(a[0], list):
            a = a[0]
        a[0] = value
    return mutate


# Values numpy or int() would cast without a word. Each case: the file it
# mutates, the mutation, and the dotted path its error must start with.
COERCIONS = {
    "visibility-false-string": ("sequence_small.json", set_first("visibility", "false"),
                                "observations"),
    "visibility-half": ("sequence_small.json", set_first("visibility", 0.5), "observations"),
    "visibility-one": ("sequence_small.json", set_first("visibility", 1), "observations"),
    "landmark-string": ("sequence_small.json", set_first("landmarks_2d", "12.5"),
                        "observations"),
    "fx-string": ("sequence_small.json", lambda d: view0(d, "intrinsics").update(fx="350"),
                  "rig.views[0].intrinsics.fx"),
    "fx-true": ("sequence_small.json", lambda d: view0(d, "intrinsics").update(fx=True),
                "rig.views[0].intrinsics.fx"),
    # a lone true among numbers still reads as 1 (numpy promotes it); all true does not
    "positions-true": (
        "sequence_small.json",
        lambda d: d["init"].update(positions=[[True] * 3 for _ in d["init"]["positions"]]),
        "init"),
    "width-fractional": ("sequence_small.json",
                         lambda d: view0(d, "intrinsics").update(width=640.9),
                         "rig.views[0].intrinsics.width"),
    "noise-seed-fractional": ("noise_demo.json", lambda d: d.update(seed=1.9), "seed"),
    "sigma-pixel-string": ("noise_demo.json", lambda d: d.update(sigma_pixel="2"),
                           "sigma_pixel"),
    "inline-parent-fractional": ("sequence_small.json", set_inline_parent, "skeleton.inline"),
    "rotation-strings": ("sequence_small.json", set_rotation_strings,
                         "rig.views[0].extrinsics.rotation"),
}


class TestNoSilentCoercion:
    @pytest.mark.parametrize("name, mutate, where", COERCIONS.values(), ids=COERCIONS)
    def test_value_numpy_would_cast_is_a_schema_error(
        self, fixtures_dir, tmp_path, capsys, name, mutate, where
    ):
        d = read_json(fixtures_dir / name)
        mutate(d)
        bad = tmp_path / name
        bad.write_text(json.dumps(d))
        load = hs.load_sequence if name.startswith("sequence") else hs.load_noise_spec
        with pytest.raises(SchemaError, match="^" + re.escape(f"{bad}.{where}: ")):
            load(bad)
        out = tmp_path / "out.json"
        if load is hs.load_sequence:
            argv = ["smooth", str(bad), str(out), "--iters", "1"]
        else:
            argv = ["generate", str(fixtures_dir / "motion_demo.json"), str(bad), str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}.{where}: ")
        assert not out.exists()


# Values set in place of each mutated node; "1e400" is written as that JSON
# literal, which reads as infinity.
MUTATIONS = (None, "x", [], {}, "1e400", -1, 10**400, True, [1, 2])
MUTATION_INPUTS = (
    ("sequence_small.json", hs.load_sequence, False),
    ("motion_demo.json", hs.load_motion_spec, True),
    ("acceptance_motion.json", hs.load_motion_spec, True),
    ("noise_demo.json", hs.load_noise_spec, True),
    ("acceptance_noise.json", hs.load_noise_spec, True),
)


def key_paths(node, prefix=()):
    """Every key path below ``node``, taking at most 2 elements of each list."""
    items = node.items() if isinstance(node, dict) else enumerate(node[:2])
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from key_paths(child, prefix + (key,))


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "__1e400__" if value == "1e400" else value
    return json.dumps(doc).replace('"__1e400__"', "1e400")


def generate(motion_path, out_dir):
    """Run ``handsmooth generate`` on a motion spec with the demo noise spec,
    letting its exception out instead of mapping it to an exit code."""
    noise = FIXTURES / "noise_demo.json"
    args = build_parser().parse_args(
        ["generate", str(motion_path), str(noise), str(out_dir / "generated.json")]
    )
    with contextlib.redirect_stdout(io.StringIO()):
        return args.func(args)


class TestMutationSweep:
    @pytest.mark.parametrize("name, load, is_spec", MUTATION_INPUTS)
    def test_every_mutation_loads_or_names_its_key(
        self, fixtures_dir, tmp_path, name, load, is_spec
    ):
        """Each mutated copy of an input fixture either loads or raises a
        SchemaError that starts with the file path; a spec's error also names
        the mutated top-level key. A motion spec that loads is also run
        through ``generate``, which must write its sequence or raise
        SpecError (a well-formed scene that no camera can render)."""
        doc = read_json(fixtures_dir / name)
        path = tmp_path / name
        escapes = []
        for keys in key_paths(doc):
            for value in MUTATIONS:
                path.write_text(mutated(doc, keys, value))
                try:
                    load(path)
                except SchemaError as e:
                    rest = str(e).removeprefix(str(path))
                    if rest == str(e) or (is_spec and keys[0] not in rest):
                        escapes.append((keys, value, str(e)))
                except Exception as e:  # noqa: BLE001 - every escape is a finding
                    escapes.append((keys, value, repr(e)))
                else:
                    if load is not hs.load_motion_spec:
                        continue
                    try:
                        generate(path, tmp_path)
                    except SpecError:
                        pass
                    except Exception as e:  # noqa: BLE001
                        escapes.append((keys, value, f"generate: {e!r}"))
        assert not escapes, f"{len(escapes)} escapes, first: {escapes[:3]}"
