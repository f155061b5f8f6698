"""The synthetic dataset generator writes the same bytes for the same config,
and nothing its manifest does not list."""

from hapticnet import synth
from hapticnet.io import load_manifest


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
