"""The synthetic dataset generator writes the same bytes for the same config,
and nothing its manifest does not list; its trials are bitwise those of the
one-generator-per-shape reference."""

import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hapticnet import synth
from hapticnet.errors import InvalidInputError
from hapticnet.io.manifest import load_manifest

from oracles import reference_make_trial


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_same_trial(trial, expected):
    assert sorted(trial.signals) == sorted(expected.signals)
    for key, chans in expected.signals.items():
        assert list(trial.signals[key]) == list(chans), key
        for name, want in chans.items():
            got = trial.signals[key][name]
            assert got.shape == want.shape, (key, name)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (key, name)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_objects": 1}, "need >=2 objects and >=1 trial, got SynthConfig(n_objects=1, n_trials=3"),
    ({"n_trials": 0}, "need >=2 objects and >=1 trial, got SynthConfig(n_objects=20, n_trials=0"),
    ({"noise": -0.5}, "noise must be >= 0, got -0.5"),
    ({"visual_leak": (1.0,)}, "one entry per factor and at least one factor, got "
                              "haptic_leak (1.0, 0.15) and visual_leak (1.0,)"),
    ({"haptic_leak": (1.0, 0.15, 0.5)}, "one entry per factor and at least one factor, got "
                                        "haptic_leak (1.0, 0.15, 0.5) and visual_leak (0.15, 1.0)"),
    ({"haptic_leak": (), "visual_leak": ()}, "one entry per factor and at least one factor, "
                                             "got haptic_leak () and visual_leak ()"),
    ({"haptic_leak": (float("nan"), 0.1)}, "haptic_leak[0] must be a finite real number, got nan"),
    ({"visual_leak": (0.1, float("inf"))}, "visual_leak[1] must be a finite real number, got inf"),
    ({"haptic_leak": ("a", 0.1)}, "haptic_leak[0] must be a finite real number, got 'a'"),
    ({"haptic_leak": (0.1, 2**1024)}, "haptic_leak[1] must be a finite real number, got 179769313486"),
    ({"visual_leak": (0.1, None)}, "visual_leak[1] must be a finite real number, got None"),
    ({"haptic_leak": None}, "haptic_leak must be a sequence of numbers, got None"),
    ({"visual_leak": 1.0}, "visual_leak must be a sequence of numbers, got 1.0"),
    ({"noise": float("nan")}, "noise must be finite, got nan"),
    ({"noise": float("inf")}, "noise must be finite, got inf"),
    ({"n_objects": 2.5}, "n_objects must be an int, got 2.5"),
    ({"n_trials": True}, "n_trials must be an int, got True"),
    ({"seed": 1.0}, "seed must be an integer, got 1.0"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": "a"}, "seed must be an integer, got 'a'"),
    ({"n_objects": True}, "n_objects must be an int, got True"),
    ({"noise": "x"}, "noise must be a real number, got 'x'"),
    ({"noise": None}, "noise must be a real number, got None"),
    ({"noise": True}, "noise must be a real number, got True"),
    ({"noise": 10**400}, "noise must be finite, got 1000000000"),
    ({"noise": -(2**1024)}, "noise must be finite, got -179769313486"),
])
def test_config_checks_name_the_bad_field(kwargs, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        synth.SynthConfig(**kwargs)


@pytest.mark.parametrize("noise", [0, 0.0, np.float64(0.05), np.float32(0.5), np.int64(2)])
def test_noise_of_any_real_type_accepted(noise):
    assert synth.SynthConfig(noise=noise).noise == noise


@pytest.mark.parametrize("haptic_leak, visual_leak", [
    ((1.0,), (1.0,)), ([0.5, 0, 1], (0.1, 0.2, 0.3)), ((np.float64(0.2), np.int64(1)), (1, 0)),
    ((np.float32(0.5),), (np.float16(1.0),)),
])
def test_the_leak_vectors_give_the_factor_count(haptic_leak, visual_leak):
    config = synth.SynthConfig(haptic_leak=haptic_leak, visual_leak=visual_leak)
    assert config.n_factors == len(haptic_leak)
    assert synth.object_factors(config)[1].shape == (config.n_objects, len(haptic_leak))


def test_numpy_integer_counts_give_the_factors_of_python_ints():
    ids, z, labels = synth.object_factors(synth.two_cue_config(n_objects=np.int64(8)))
    ref_ids, ref_z, ref_labels = synth.object_factors(synth.two_cue_config(n_objects=8))
    assert ids == ref_ids and labels == ref_labels
    assert z.shape == ref_z.shape and np.array_equal(z.view(np.int64), ref_z.view(np.int64))


def test_no_qualifying_draw_raises_naming_seed_and_adjective():
    # every draw at this seed leaves an adjective with fewer than 2 of a class
    with pytest.raises(InvalidInputError, match=re.escape(
            "seed 1010: none of 64 draws of 4 objects gives the first 3 adjectives two "
            "objects of each class; the last leaves adjective 'absorbent' short")):
        synth.object_factors(synth.two_cue_config(n_objects=4, seed=1010))


def test_below_four_objects_the_last_draw_is_kept():
    # no draw of 3 objects can hold two of each class
    config = synth.two_cue_config(n_objects=3, seed=1010)
    last = synth._rng(config.seed, "factors", synth._FACTOR_DRAWS - 1).uniform(
        -1.0, 1.0, size=(3, config.n_factors))
    assert np.array_equal(synth.object_factors(config)[1], last)


@settings(max_examples=60)
@given(n_objects=st.integers(4, 12), n_factors=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
def test_returned_labels_give_the_guarded_adjectives_two_of_each_class(n_objects, n_factors,
                                                                        seed):
    config = synth.SynthConfig(n_objects=n_objects, seed=seed, haptic_leak=(1.0,) * n_factors,
                               visual_leak=(1.0,) * n_factors)
    try:
        _, _, labels = synth.object_factors(config)
    except InvalidInputError as e:
        assert f"seed {seed}: none of 64 draws" in str(e)
        return
    for adjective in synth.ADJECTIVES[:n_factors + 1]:
        positives = sum(row[adjective] for _, _, row in labels)
        assert 2 <= positives <= n_objects - 2, adjective


def test_two_runs_write_byte_identical_trees(tmp_path):
    config = synth.separable_config(n_objects=2, n_trials=1, seed=7)
    first = synth.synth_generate(config, tmp_path / "a")
    second = synth.synth_generate(config, tmp_path / "b")
    assert first.relative_to(tmp_path / "a") == second.relative_to(tmp_path / "b")
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert sorted(a) == sorted(b)
    assert any(name.startswith("trials/") for name in a)
    assert any(name.startswith("visual/") for name in a)
    for name in a:
        assert a[name] == b[name], name


def test_tree_holds_only_what_the_manifest_lists(tmp_path):
    manifest_path = synth.synth_generate(
        synth.separable_config(n_objects=2, n_trials=1, seed=7), tmp_path)
    manifest = load_manifest(manifest_path)
    listed = {manifest_path.name, manifest.labels_path}
    listed |= {e["path"] for e in manifest.trials + manifest.visual}
    assert set(tree_bytes(tmp_path)) == listed


# No shrinking: each shrink step re-runs a whole-trial comparison, so a
# failure would take minutes to report, and assert_same_trial already names
# the (finger, EP) block and the channel that differ.
@settings(max_examples=25, phases=(Phase.explicit, Phase.generate))
@given(n_factors=st.integers(1, 3), seed=st.integers(0, 2**31 - 1),
       object_id=st.sampled_from(["obj000", "obj017", "x"]), trial_index=st.integers(0, 5),
       noise=st.sampled_from([0.0, 0.05, 0.4]),
       leak=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       z=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_trials_are_bitwise_the_reference(n_factors, seed, object_id, trial_index, noise,
                                          leak, z):
    config = synth.SynthConfig(noise=noise, seed=seed, haptic_leak=tuple(leak[:n_factors]),
                               visual_leak=(1.0,) * n_factors)
    z = np.array(z[:n_factors])
    assert_same_trial(synth.make_trial(config, object_id, z, trial_index),
                      reference_make_trial(config, object_id, z, trial_index))


def test_trials_do_not_share_memory_between_calls():
    config = synth.two_cue_config(n_objects=3, n_trials=1, seed=4)
    ids, z, _ = synth.object_factors(config)
    first = synth.make_trial(config, ids[0], z[0], 0)
    for chans in first.signals.values():
        for series in chans.values():
            series[:] = 0.0
    assert_same_trial(synth.make_trial(config, ids[0], z[0], 0),
                      reference_make_trial(config, ids[0], z[0], 0))


def test_tree_is_byte_identical_to_one_from_reference_trials(tmp_path, monkeypatch):
    config = synth.two_cue_config(n_objects=3, n_trials=2, seed=11)
    synth.synth_generate(config, tmp_path / "fast")
    monkeypatch.setattr(synth, "make_trial", reference_make_trial)
    synth.synth_generate(config, tmp_path / "reference")
    fast, reference = tree_bytes(tmp_path / "fast"), tree_bytes(tmp_path / "reference")
    assert sorted(fast) == sorted(reference)
    for name in reference:
        assert fast[name] == reference[name], name
