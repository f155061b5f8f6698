"""Quick tests of the benchmark's oracles, and a smoke size of each workload."""

import json
from pathlib import Path

import numpy as np
import pytest

from hapticnet import haptic, synth
from hapticnet.evaluation import roc_auc

import pb_bench
import pb_oracles as oracles
from pb_workloads import SMOKE


def test_pair_count_auc_counts_ties_as_half():
    assert oracles.pair_count_auc([0.9, 0.1, 0.5], [1, -1, -1]) == 1.0
    assert oracles.pair_count_auc([0.5, 0.5, 0.7, 0.1], [1, -1, 1, -1]) == 0.875
    assert oracles.pair_count_auc([0.0, 1.0], [1, -1]) == 0.0


def test_pair_count_auc_agrees_with_rank_auc():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, 40).astype(float)
    labels = np.where(rng.random(40) < 0.4, 1, -1)
    assert oracles.pair_count_auc(scores, labels) == pytest.approx(roc_auc(scores, labels), abs=1e-12)


def test_window_means_and_subsample_by_hand():
    series = np.arange(50.0)
    assert np.array_equal(oracles.window_means(series, 22), [10.5, 32.5])
    picked = oracles.subsample(np.arange(300.0), offset=2)
    assert picked[0] == 2.0 and picked[-1] == 299.0 and len(picked) == 150
    assert picked[1] == 2.0 + round(297 / 149)


def test_zscore_and_constant_series():
    z = oracles.zscore([1.0, 2.0, 3.0])
    assert z.mean() == pytest.approx(0.0) and z.std() == pytest.approx(1.0)
    assert np.array_equal(oracles.zscore([4.0, 4.0]), [0.0, 0.0])


def test_eigh_pca_recovers_known_axes():
    rng = np.random.default_rng(1)
    axes, _ = np.linalg.qr(rng.standard_normal((19, 19)))
    scales = np.array([10.0, 6.0, 3.0, 1.5] + [0.01] * 15)
    x = 5.0 + (rng.standard_normal((4000, 19)) * scales) @ axes.T
    mean, comps, ratios = oracles.eigh_pca(x, 4)
    assert np.allclose(mean, 5.0, atol=0.5)
    assert np.all(np.abs(np.sum(comps * axes[:, :4], axis=0)) > 0.999)
    assert np.all(np.diff(ratios) < 0)
    fit = haptic.pca_fit(x)
    ref = (mean, comps, ratios)
    assert oracles.pca_matches(fit.mean, fit.components, fit.explained_variance_ratio, ref) == []
    swapped = fit.components[:, [1, 0, 2, 3]]
    assert oracles.pca_matches(fit.mean, swapped, fit.explained_variance_ratio, ref)


def test_instance_rederivation_matches_assemble_instance():
    config = synth.two_cue_config(n_objects=4, n_trials=1, seed=3)
    ids, z, _ = synth.object_factors(config)
    trial = synth.make_trial(config, ids[0], z[0], 0)
    pca = {ep: haptic.pca_fit(np.concatenate([oracles.electrode_matrix(trial.signals[(f, ep)])
                                              for f in haptic.FINGERS]))
           for ep in haptic.EPS}
    projection = {ep: (m.mean, m.components) for ep, m in pca.items()}
    for finger, offset in ((0, 0), (1, 4)):
        got = haptic.assemble_instance(trial, finger, offset, pca).values
        assert np.allclose(got, oracles.instance(trial.signals, finger, offset, projection),
                           rtol=0, atol=1e-10)


def _declared(section):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload,trace", [
    ("ingest", 1), ("cnn_lstm", 0), ("cnn_lstm", 1),
])
def test_smoke_workload(workload, trace, tmp_path):
    work_dir = tmp_path / "work"
    result, record = pb_bench.run(workload, seed=5, seconds=0, trace=trace,
                                  work_dir=work_dir, size=SMOKE)
    assert record["problems"] == []
    # seconds=0 still runs one whole cycle: one round per split when training
    assert record["samples"]["rounds"] == (1 if workload == "ingest" else 2)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not work_dir.exists(), "the workload left its data behind"
