"""Dataset manifests: strict loading, and validation of a dataset tree."""

import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hapticnet import synth
from hapticnet.errors import InvalidInputError
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
    "views_per_object": lambda d: d.__setitem__("views_per_object", True),
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
        for key in ("trials_per_object", "views_per_object"):
            del data[key]
        loaded = load_manifest(write_json(tmp_path / "m.json", data))
        bare = DatasetManifest(data["name"], data["objects"], data["labels"],
                               data["trials"], data["visual"])
        assert loaded == bare

    def test_old_preprocessing_blocks_are_ignored(self, tree, tmp_path):
        # manifests used to copy the package's preprocessing constants
        data = json.loads(tree.read_text())
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

    def test_unreadable_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError, match="cannot read manifest"):
            load_manifest(path)

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

    def test_missing_trial_file(self, tree):
        manifest = load_manifest(tree)
        gone = tree.parent / manifest.trials[3]["path"]
        os.remove(gone)
        findings = validate(manifest, tree.parent)
        assert [(f.file, f.field) for f in findings] == [(str(gone), "trial-file")]

    def test_wrong_sample_rate_ratio(self, tree):
        manifest = load_manifest(tree)
        path = tree.parent / manifest.trials[5]["path"]
        chans = read_trial_file(path)
        chans["P_AC"] = chans["P_AC"][:2 * chans["P_DC"].size]
        write_trial_file(path, chans)
        findings = validate(manifest, tree.parent)
        assert [(f.file, f.field) for f in findings] == [(str(path), "sample-rate")]
        assert "P_AC/P_DC length ratio 2.0" in findings[0].message

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
