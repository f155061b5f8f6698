"""Dataset manifests: strict loading, and validation of a dataset tree."""

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hapticnet import synth
from hapticnet.errors import InvalidInputError, UnsupportedFormatError
from hapticnet.haptic import CHANNELS, DECIMATION, HapticTrial
from hapticnet.io import (
    DatasetManifest,
    Finding,
    load_manifest,
    read_feature_maps,
    read_labels_csv,
    read_trial_file,
    save_manifest,
    validate,
    write_feature_maps,
    write_labels_csv,
    write_trial_file,
)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return synth.synth_generate(synth.separable_config(n_objects=2, n_trials=1, seed=6),
                               tmp_path_factory.mktemp("dataset"))


@pytest.fixture
def tree(generated, tmp_path):
    """A fresh copy of a small synthetic dataset; returns its manifest path."""
    shutil.copytree(generated.parent, tmp_path / "dataset")
    return tmp_path / "dataset" / generated.name


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


# The field each edit breaks -> the edit, applied to a valid manifest's JSON.
BAD_EDITS = {
    "trials[0]": lambda d: d["trials"].__setitem__(0, "trials/a.csv"),
    "trials[1].path": lambda d: d["trials"][1].__setitem__("path", 5),
    "objects[1]": lambda d: d["objects"][1].pop("id"),
    "visual[0]": lambda d: d["visual"].__setitem__(0, "visual/a.vfm"),
    "trials_per_object": lambda d: d.__setitem__("trials_per_object", "ten"),
    "labels": lambda d: d.__setitem__("labels", ["labels.csv"]),
    "trials": lambda d: d.__setitem__("trials", {}),
    "trials[2]": lambda d: d["trials"][2].pop("ep"),
    "visual[1].object_id": lambda d: d["visual"][1].__setitem__("object_id", 3),
}


class TestLoadManifest:
    def test_save_load_round_trip(self, tree, tmp_path):
        manifest = load_manifest(tree)
        assert isinstance(manifest, DatasetManifest)
        save_manifest(tmp_path / "again.json", manifest)
        assert (tmp_path / "again.json").read_text() == tree.read_text()
        assert load_manifest(tmp_path / "again.json") == manifest

    def test_optional_fields_take_their_defaults(self, tree, tmp_path):
        data = json.loads(tree.read_text())
        del data["trials_per_object"]
        loaded = load_manifest(write_json(tmp_path / "m.json", data))
        bare = DatasetManifest(data["name"], data["objects"], data["labels"],
                               data["trials"], data["visual"])
        assert loaded == bare

    def test_old_preprocessing_blocks_are_ignored(self, tree, tmp_path):
        # manifests used to copy the package's preprocessing constants, and
        # to carry a view count; the feature files are checked against
        # visual.N_VIEWS whatever that count says
        data = json.loads(tree.read_text())
        data["views_per_object"] = 4
        data["preprocessing"] = {"resample_len": 150, "decimation": 22,
                                 "pca_components": 4, "offsets": [0, 1, 2, 3, 4]}
        data["visual_preprocessing"] = {"rgb_means": [123.68, 116.78, 103.94],
                                        "input_size": [224, 224], "crops": {}}
        old = load_manifest(write_json(tmp_path / "old.json", data))
        assert old == load_manifest(tree)
        assert validate(old, tree.parent) == []

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_bad_version_rejected(self, tree, tmp_path, version):
        data = json.loads(tree.read_text())
        data["version"] = version
        path = write_json(tmp_path / "m.json", data)
        with pytest.raises(InvalidInputError, match="unsupported manifest version") as err:
            load_manifest(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("field", ["name", "objects", "labels", "trials", "visual"])
    def test_missing_field_rejected(self, tree, tmp_path, field):
        data = json.loads(tree.read_text())
        del data[field]
        path = write_json(tmp_path / "m.json", data)
        with pytest.raises(InvalidInputError, match=f"missing fields \\['{field}'\\]") as err:
            load_manifest(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("count", [0, -2])
    def test_trials_per_object_below_one_rejected(self, tree, tmp_path, count):
        # with no trial entries, such a manifest expects no haptic data at all
        data = json.loads(tree.read_text())
        data["trials_per_object"] = count
        data["trials"] = []
        path = write_json(tmp_path / "m.json", data)
        with pytest.raises(InvalidInputError) as err:
            load_manifest(path)
        assert str(err.value) == (f"{path}: manifest field trials_per_object "
                                  f"must be at least 1, got {count}")

    def test_unreadable_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError, match="cannot read manifest"):
            load_manifest(path)

    def test_json_that_is_not_an_object_rejected(self, tmp_path):
        path = write_json(tmp_path / "m.json", [1, 2])
        with pytest.raises(InvalidInputError, match="manifest must be a JSON object") as err:
            load_manifest(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("field", list(BAD_EDITS))
    def test_structurally_bad_manifest_names_path_and_field(self, tree, tmp_path, field):
        data = json.loads(tree.read_text())
        BAD_EDITS[field](data)
        path = write_json(tmp_path / "m.json", data)
        with pytest.raises(InvalidInputError) as err:
            load_manifest(path)
        message = str(err.value)
        assert str(path) in message
        assert f"manifest field {field} " in message


class TestValidate:
    def test_generated_tree_is_clean(self, tree):
        assert validate(load_manifest(tree), tree.parent) == []

    def test_missing_label_row(self, tree):
        manifest = load_manifest(tree)
        labels = tree.parent / manifest.labels_path
        rows = read_labels_csv(labels)
        write_labels_csv(labels, rows[1:])
        assert validate(manifest, tree.parent) == [Finding(
            str(labels), "object_id", f"object {rows[0][0]} has no label row")]

    def test_duplicate_object_ids(self, tree):
        manifest = load_manifest(tree)
        manifest.objects.append(dict(manifest.objects[1]))
        assert validate(manifest, tree.parent) == [Finding(
            "manifest", "objects", f"duplicate object ids ['{manifest.objects[1]['id']}']")]

    @pytest.mark.parametrize("text", [None, "", "object_id,name\n"],
                             ids=["missing", "empty", "bad-header"])
    def test_unreadable_label_table(self, tree, text):
        manifest = load_manifest(tree)
        labels = tree.parent / manifest.labels_path
        if text is None:
            os.remove(labels)
        else:
            labels.write_text(text)
        findings = validate(manifest, tree.parent)
        assert [(f.file, f.field) for f in findings] == [(str(labels), "labels")]
        assert str(labels) in findings[0].message

    def test_repeated_label_row(self, tree):
        # the repeat flips every label; a dict built from the rows would keep it
        manifest = load_manifest(tree)
        labels = tree.parent / manifest.labels_path
        rows = read_labels_csv(labels)
        obj, name, first = rows[0]
        # written as text: the writer refuses a repeated object id
        flipped = ",".join("0" if v else "1" for v in first.values())
        labels.write_text(labels.read_text() + f"{obj},{name},{flipped}\n")
        assert validate(manifest, tree.parent) == [Finding(
            str(labels), "labels",
            f"{labels}:{len(rows) + 2}: object {obj!r} already has a row, on line 2")]

    def test_duplicate_trial_entry(self, tree):
        manifest = load_manifest(tree)
        entry = manifest.trials[0]
        manifest.trials.append(dict(entry))
        key = (entry["trial"], entry["finger"], entry["ep"])
        assert validate(manifest, tree.parent) == [Finding(
            "manifest", "trials", f"duplicate trial entry {entry['object_id']}/{key}")]

    def test_trial_entry_for_unknown_object(self, tree):
        manifest = load_manifest(tree)
        manifest.trials[0] = dict(manifest.trials[0], object_id="ghost")
        assert Finding("manifest", "trials", "trial entry for unknown object ghost") in \
            validate(manifest, tree.parent)

    def test_feature_file_with_wrong_view_count(self, tree):
        manifest = load_manifest(tree)
        path = tree.parent / manifest.visual[0]["path"]
        write_feature_maps(path, read_feature_maps(path)[:-1])
        findings = validate(manifest, tree.parent)
        assert findings == [Finding(str(path), "views", "7 views, expected 8")]
        assert str(findings[0]) == f"{path} [views]: 7 views, expected 8"

    def test_view_count_of_an_old_manifest_does_not_excuse_feature_files(self, tree, tmp_path):
        data = json.loads(tree.read_text())
        data["views_per_object"] = 4
        manifest = load_manifest(write_json(tmp_path / "m.json", data))
        paths = [tree.parent / entry["path"] for entry in manifest.visual]
        for path in paths:
            write_feature_maps(path, read_feature_maps(path)[:4])
        assert validate(manifest, tree.parent) == [
            Finding(str(path), "views", "4 views, expected 8") for path in paths]

    def test_feature_maps_with_an_empty_axis(self, tree):
        manifest = load_manifest(tree)
        path = tree.parent / manifest.visual[1]["path"]
        write_feature_maps(path, np.zeros((8, 0, 4, 12)))
        assert validate(manifest, tree.parent) == [
            Finding(str(path), "shape", "maps of shape (0, 4, 12) have an empty axis")]

    def test_feature_maps_whose_channel_count_differs(self, tree):
        # pooling removes H and W, so another grid size is no finding; with
        # one file of each count neither is the odd one, so both are named
        manifest = load_manifest(tree)
        paths = [tree.parent / entry["path"] for entry in manifest.visual]
        grids = read_feature_maps(paths[1])
        c = grids.shape[3]
        write_feature_maps(paths[0], read_feature_maps(paths[0])[:, :2, :3])
        write_feature_maps(paths[1], grids[..., :c - 2])
        assert validate(manifest, tree.parent) == [
            Finding(str(path), "channels",
                    f"{n} channels, where 1 of 2 feature files have each of {c - 2}, {c}")
            for path, n in zip(paths, (c, c - 2))]

    def test_feature_maps_whose_channel_count_differs_from_the_most_common(self, tmp_path):
        # 12, 12 and 10 channels: the 10-channel file alone is named
        manifest_path = synth.synth_generate(
            synth.separable_config(n_objects=3, n_trials=1, seed=6), tmp_path / "three")
        manifest = load_manifest(manifest_path)
        paths = [manifest_path.parent / entry["path"] for entry in manifest.visual]
        grids = read_feature_maps(paths[2])
        c = grids.shape[3]
        write_feature_maps(paths[2], grids[..., :c - 2])
        assert validate(manifest, manifest_path.parent) == [Finding(
            str(paths[2]), "channels",
            f"{c - 2} channels, where 2 of 3 feature files have {c}")]

    def test_missing_trial_file(self, tree):
        manifest = load_manifest(tree)
        gone = tree.parent / manifest.trials[3]["path"]
        os.remove(gone)
        findings = validate(manifest, tree.parent)
        assert [(f.file, f.field) for f in findings] == [(str(gone), "trial-file")]
        assert findings[0].message == f"cannot read {gone}: No such file or directory"

    def test_wrong_sample_rate_ratio(self, tree):
        manifest = load_manifest(tree)
        path = tree.parent / manifest.trials[5]["path"]
        chans = read_trial_file(path)
        chans["P_AC"] = chans["P_AC"][:2 * chans["P_DC"].size]
        write_trial_file(path, chans)
        findings = validate(manifest, tree.parent)
        assert [(f.file, f.field) for f in findings] == [(str(path), "sample-rate")]
        assert "P_AC/P_DC length ratio 2.0" in findings[0].message

    def test_block_too_short_for_every_offset(self, tree):
        manifest = load_manifest(tree)
        path = tree.parent / manifest.trials[2]["path"]
        chans = {c: v[:152] for c, v in read_trial_file(path).items()}
        chans["P_AC"] = read_trial_file(path)["P_AC"][:22 * 152]
        write_trial_file(path, chans)
        findings = validate(manifest, tree.parent)
        assert [(f.file, f.field) for f in findings] == [(str(path), "lengths")]
        assert "100 Hz length 152 and decimated P_AC length 152 must both be at least 154" \
            in findings[0].message

    def test_corrupt_feature_file(self, tree):
        manifest = load_manifest(tree)
        path = tree.parent / manifest.visual[1]["path"]
        path.write_bytes(path.read_bytes()[:-4])
        findings = validate(manifest, tree.parent)
        assert [(f.file, f.field) for f in findings] == [(str(path), "feature-file")]
        assert "truncated tensor 'grids'" in findings[0].message

    @pytest.mark.parametrize("key", ["objects", "trials", "visual"])
    def test_entry_that_is_not_an_object_is_a_finding(self, tree, key):
        # a manifest built in code skips load_manifest's structural checks
        manifest = load_manifest(tree)
        getattr(manifest, key)[1] = "stray/entry"
        findings = validate(manifest, tree.parent)
        assert Finding("manifest", f"{key}[1]", "must be an object, got str") in findings

    @pytest.mark.parametrize("field, attr, value, message", [
        ("labels", "labels_path", 5, "must be a string, got int"),
        ("trials_per_object", "trials_per_object", "ten", "must be an integer, got str"),
        ("trials", "trials", None, "must be a list, got NoneType"),
    ])
    def test_field_of_the_wrong_type_is_a_finding(self, tree, field, attr, value, message):
        manifest = load_manifest(tree)
        setattr(manifest, attr, value)
        assert validate(manifest, tree.parent) == [Finding("manifest", field, message)]

    @pytest.mark.parametrize("count", [0, -2])
    def test_trials_per_object_below_one_is_a_finding(self, tree, count):
        manifest = load_manifest(tree)
        manifest.trials_per_object = count
        manifest.trials = []
        assert validate(manifest, tree.parent) == [
            Finding("manifest", "trials_per_object", f"must be at least 1, got {count}")]

    def test_entry_with_a_bad_field_is_a_finding(self, tree):
        manifest = load_manifest(tree)
        manifest.trials[1] = dict(manifest.trials[1], path=5)
        findings = validate(manifest, tree.parent)
        assert Finding("manifest", "trials[1].path", "must be a string, got int") in findings


def perturb_block(data, chans):
    """One drawn edit of a block that the trial writer still accepts:
    trim the channels from some column on, truncate P_AC, or empty it."""
    base_len = chans["P_DC"].size
    kind = data.draw(st.sampled_from(["trim", "truncate P_AC", "empty"]))
    if kind == "trim":
        first = data.draw(st.integers(1, len(CHANNELS) - 1))
        keep = base_len - data.draw(st.integers(0, 2) | st.integers(0, base_len))
        return dict(chans, **{c: chans[c][:keep] for c in CHANNELS[first:]})
    if kind == "truncate P_AC":
        cut = data.draw(st.integers(0, 2 * DECIMATION) | st.integers(0, chans["P_AC"].size))
        return dict(chans, P_AC=chans["P_AC"][:max(base_len, chans["P_AC"].size - cut)])
    return {c: v[:0] for c, v in chans.items()}


# Each example restores the file it edits, so sharing the tree is safe.
@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_validate_flags_a_block_exactly_when_checked_channels_raises(tree, data):
    manifest = load_manifest(tree)
    entry = data.draw(st.sampled_from(manifest.trials))
    path = tree.parent / entry["path"]
    original = path.read_bytes()
    try:
        write_trial_file(path, perturb_block(data, read_trial_file(path)))
        chans = read_trial_file(path)
        flagged = {f.file for f in validate(manifest, tree.parent)}
    finally:
        path.write_bytes(original)
    assert flagged <= {str(path)}
    block = (entry["finger"], entry["ep"])
    trial = HapticTrial(entry["object_id"], entry["trial"], {block: chans})
    try:
        trial.checked_channels(*block)
        raised = False
    except InvalidInputError:
        raised = True
    assert raised == (str(path) in flagged)


def outcome(path):
    """A trial file's channels, or the UnsupportedFormatError reading it raises."""
    try:
        return read_trial_file(path)
    except UnsupportedFormatError as e:
        return e


@st.composite
def byte_flips(draw, raw):
    """``raw`` with one to three bytes changed: each flipped by a drawn mask,
    set to a digit, or set to a byte that the label table gives a meaning to."""
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(out) - 1))
        out[i] = draw(st.integers(1, 255).map(lambda mask: out[i] ^ mask)
                      | st.sampled_from(b"0123456789")
                      | st.sampled_from(b".,-e\n\r \xff"))
    return bytes(out)


# Each example restores the file it flips, so sharing the tree is safe.
@pytest.mark.parametrize("kind", ["labels", "visual", "trials"])
@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_validate_of_a_flipped_file_is_total_and_names_each_unreadable_trial_file(
        tree, kind, data):
    manifest = load_manifest(tree)
    root = tree.parent
    trial_paths = [root / entry["path"] for entry in manifest.trials]
    path = data.draw(st.sampled_from({
        "labels": [root / manifest.labels_path],
        "visual": [root / v["path"] for v in manifest.visual],
        "trials": trial_paths,
    }[kind]))
    original = path.read_bytes()
    try:
        path.write_bytes(data.draw(byte_flips(original)))
        findings = validate(manifest, root)
        errors = [e for e in map(outcome, trial_paths) if isinstance(e, Exception)]
    finally:
        path.write_bytes(original)
    assert isinstance(findings, list) and all(isinstance(f, Finding) for f in findings)
    # a trial file that cannot be read is reported with the reader's error
    assert [f.message for f in findings if f.field == "trial-file"] == [str(e) for e in errors]
