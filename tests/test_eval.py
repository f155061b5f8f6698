"""Split construction, ROC-AUC, evaluation, and report aggregation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapticnet.errors import (
    InfeasibleSplitError,
    InvalidInputError,
    LeakageError,
    UndefinedAUCError,
)
from hapticnet.evaluation import (
    ADJECTIVES,
    EvalReport,
    SplitPlan,
    aggregate,
    evaluate,
    make_split,
    roc_auc,
)

from oracles import pair_count_auc


def label_table(rng, objects, p_positive=0.4):
    return {obj: {a: bool(rng.random() < p_positive) for a in ADJECTIVES} for obj in objects}


class TestAdjectives:
    def test_fixed_order_of_24(self):
        assert len(ADJECTIVES) == 24
        assert ADJECTIVES[0] == "absorbent"
        assert ADJECTIVES[-1] == "unpleasant"


class TestMakeSplit:
    def test_53_objects_give_5_or_6_test_objects(self):
        objects = [f"o{i}" for i in range(53)]
        labels = label_table(np.random.default_rng(0), objects)
        plan = make_split(objects, labels, "squishy", seed=1)
        assert len(plan.test_ids) in (5, 6)
        assert set(plan.train_ids) | set(plan.test_ids) == set(objects)
        assert not set(plan.train_ids) & set(plan.test_ids)

    def test_both_classes_on_both_sides(self):
        objects = [f"o{i}" for i in range(53)]
        labels = label_table(np.random.default_rng(1), objects)
        for seed in range(20):
            plan = make_split(objects, labels, "hard", seed=seed)
            for side in (plan.train_ids, plan.test_ids):
                truths = {labels[o]["hard"] for o in side}
                assert truths == {True, False}

    def test_unknown_adjective_rejected(self):
        objects = [f"o{i}" for i in range(10)]
        labels = label_table(np.random.default_rng(3), objects)
        with pytest.raises(InvalidInputError, match="unknown adjective 'wet'"):
            make_split(objects, labels, "wet", seed=0)

    @pytest.mark.parametrize("drop", ["object", "adjective"])
    def test_object_without_a_label_rejected(self, drop):
        objects = [f"o{i}" for i in range(10)]
        labels = label_table(np.random.default_rng(3), objects)
        for obj in ("o2", "o7"):
            if drop == "object":
                del labels[obj]
            else:
                del labels[obj]["bumpy"]
        with pytest.raises(InvalidInputError,
                           match=re.escape("bumpy: objects ['o2', 'o7'] have no label for it")):
            make_split(objects, labels, "bumpy", seed=0)

    def test_repeated_object_rejected(self):
        # a repeat would size the split for 10 objects and return 8
        objects = list("aabcdefghh")
        labels = label_table(np.random.default_rng(3), objects, p_positive=0.5)
        with pytest.raises(InvalidInputError,
                           match=re.escape("bumpy: objects ['a', 'h'] are listed more than once")):
            make_split(objects, labels, "bumpy", ratio=0.7, seed=0)

    @pytest.mark.parametrize("n_pos, ratio, message", [
        (1, 0.9, "needs >=2 positive and >=2 negative objects, has 1 and 9"),
        # each test size tried, 9 to 11, would take all five negatives
        (5, 0.01, "no test size near 10 of 10 objects leaves both classes on both sides"),
        (5, 0.05, "no test size near 10 of 10 objects leaves both classes on both sides"),
    ])
    def test_infeasible_split_rejected(self, n_pos, ratio, message):
        objects = [f"o{i}" for i in range(10)]
        labels = label_table(np.random.default_rng(2), objects, p_positive=0.0)
        for obj in objects[:n_pos]:
            labels[obj]["fuzzy"] = True
        with pytest.raises(InfeasibleSplitError, match=re.escape(f"fuzzy: {message}")):
            make_split(objects, labels, "fuzzy", ratio=ratio, seed=0)

    def test_same_seed_same_plan(self):
        objects = [f"o{i}" for i in range(30)]
        labels = label_table(np.random.default_rng(3), objects)
        a = make_split(objects, labels, "cool", seed=7)
        b = make_split(objects, labels, "cool", seed=7)
        assert a == b
        c = make_split(objects, labels, "cool", seed=8)
        assert c != a

    def test_every_object_reaches_test_side(self):
        objects = [f"o{i}" for i in range(20)]
        labels = label_table(np.random.default_rng(4), objects, p_positive=0.5)
        seen = set()
        for seed in range(1000):
            seen |= set(make_split(objects, labels, "soft", seed=seed).test_ids)
            if len(seen) == 20:
                break
        assert seen == set(objects)

    def test_every_label_count_feasible_at_default_ratio(self):
        for n in range(8, 33):
            objects = [f"o{i}" for i in range(n)]
            for n_pos in range(2, n - 1):
                labels = {o: {"bumpy": i < n_pos} for i, o in enumerate(objects)}
                plan = make_split(objects, labels, "bumpy", seed=n_pos)
                assert set(plan.train_ids) | set(plan.test_ids) == set(objects)
                for side in (plan.train_ids, plan.test_ids):
                    assert {labels[o]["bumpy"] for o in side} == {True, False}, (n, n_pos)

    def test_seeded_splits_are_pinned(self):
        # splits that were feasible before the last-resort test size existed
        # keep the objects they were drawn with, from the ids in sorted
        # order ("o10" before "o2")
        def test_ids(n, n_pos, ratio, seed):
            objects = [f"o{i}" for i in range(n)]
            labels = {o: {"bumpy": i < n_pos} for i, o in enumerate(objects)}
            return make_split(objects, labels, "bumpy", ratio=ratio, seed=seed).test_ids
        assert test_ids(12, 5, 0.9, 2) == ("o1", "o8")
        assert test_ids(10, 4, 0.7, 1) == ("o2", "o6", "o8")

    @settings(max_examples=60, deadline=None)
    @given(order=st.permutations([f"o{i}" for i in range(14)]), seed=st.integers(0, 2**32))
    def test_split_does_not_depend_on_the_list_order(self, order, seed):
        objects = sorted(order)
        labels = label_table(np.random.default_rng(6), objects, p_positive=0.5)
        assert (make_split(order, labels, "soft", seed=seed)
                == make_split(objects, labels, "soft", seed=seed))

    def test_ids_that_cannot_be_sorted_rejected(self):
        objects = [f"o{i}" for i in range(9)] + [9]
        labels = label_table(np.random.default_rng(3), objects, p_positive=0.5)
        with pytest.raises(InvalidInputError, match="soft: object ids cannot be sorted"):
            make_split(objects, labels, "soft", seed=0)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, 2.0, -0.1, float("nan"), "x", None])
    def test_ratio_outside_the_open_unit_interval_rejected(self, ratio):
        objects = [f"o{i}" for i in range(10)]
        labels = {o: {"bumpy": i < 5} for i, o in enumerate(objects)}
        with pytest.raises(InvalidInputError, match=f"ratio .*got {ratio!r}"):
            make_split(objects, labels, "bumpy", ratio=ratio)

    def test_split_plan_rejects_overlap(self):
        with pytest.raises(LeakageError):
            SplitPlan(adjective="soft", seed=0, train_ids=("a", "b"), test_ids=("b",))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.2], [1, 1, -1, -1]) == 1.0

    def test_tie_credit(self):
        assert roc_auc([0.5, 0.5], [1, -1]) == 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(10_000)
        labels = np.where(rng.random(10_000) < 0.5, 1, -1)
        assert 0.48 <= roc_auc(scores, labels) <= 0.52

    @pytest.mark.parametrize("seed", range(10))
    def test_exactly_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        scores = np.round(rng.standard_normal(n), 1)  # force some ties
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        if len(set(labels)) < 2:
            labels[0] = -labels[0]
        assert roc_auc(scores, labels) == pair_count_auc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(40)
        labels = np.where(rng.random(40) < 0.4, 1, -1)
        labels[0], labels[1] = 1, -1
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == base
        assert roc_auc(3 * scores + 11, labels) == base

    def test_negation_symmetry(self):
        rng = np.random.default_rng(7)
        scores = rng.standard_normal(31)  # continuous, ties have measure zero
        labels = np.where(rng.random(31) < 0.5, 1, -1)
        labels[0], labels[1] = 1, -1
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0)

    @pytest.mark.parametrize("scores, index", [
        ([float("nan"), 0.5, 0.1], 0),
        ([0.9, 0.5, float("nan"), float("nan")], 2),
    ])
    def test_nan_score_rejected(self, scores, index):
        with pytest.raises(InvalidInputError, match=f"score {index} is NaN"):
            roc_auc(scores, [1, -1, -1, 1][:len(scores)])

    @pytest.mark.parametrize("scores, labels", [
        ([0.1, 0.2, 0.3], [1, -1]),
        ([[0.1, 0.2]], [[1, -1]]),
    ])
    def test_scores_and_labels_of_other_shapes_rejected(self, scores, labels):
        shapes = f"scores {np.shape(scores)} and labels {np.shape(labels)}"
        with pytest.raises(InvalidInputError, match=re.escape(shapes)):
            roc_auc(scores, labels)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedAUCError):
            roc_auc([0.1, 0.2], [1, 1])


class TestEvaluate:
    def setup_features(self, rng, n=12):
        objects = [f"o{i}" for i in range(n)]
        truth = {o: bool(rng.random() < 0.5) for o in objects}
        # both classes guaranteed on both sides
        truth[objects[0]], truth[objects[1]] = True, False
        truth[objects[n // 2]], truth[objects[n // 2 + 1]] = True, False
        features = [(o, np.array([1.0 if truth[o] else -1.0, rng.standard_normal()]))
                    for o in objects]
        split = SplitPlan(adjective="soft", seed=0,
                          train_ids=tuple(objects[: n // 2]),
                          test_ids=tuple(objects[n // 2:]))
        return features, truth, split

    def test_truth_scorer_gets_auc_one(self):
        features, truth, split = self.setup_features(np.random.default_rng(8))
        assert evaluate(lambda x: x[0], features, truth, split) == 1.0

    def test_negated_scorer_gets_complement(self):
        features, truth, split = self.setup_features(np.random.default_rng(9))
        auc = evaluate(lambda x: x[1], features, truth, split)
        neg = evaluate(lambda x: -x[1], features, truth, split)
        assert auc + neg == pytest.approx(1.0)

    def test_missing_test_features_rejected(self):
        features, truth, split = self.setup_features(np.random.default_rng(10))
        subset = [f for f in features if f[0] != split.test_ids[0]]
        with pytest.raises(InvalidInputError):
            evaluate(lambda x: 0.0, subset, truth, split)

    def test_unlabeled_test_objects_rejected_before_scoring(self):
        features, truth, split = self.setup_features(np.random.default_rng(12))
        gone = sorted(split.test_ids[1:3])
        for obj in gone:
            del truth[obj]
        scored = []
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"no labels for test objects: {gone}")):
            evaluate(lambda x: scored.append(x) or 0.0, features, truth, split)
        assert scored == []

    def test_matches_pair_counting_on_instance_scores(self):
        rng = np.random.default_rng(11)
        features, truth, split = self.setup_features(rng)
        scorer = lambda x: float(x[1])
        auc = evaluate(scorer, features, truth, split)
        test_feats = [(o, x) for o, x in features if o in split.test_ids]
        scores = [scorer(x) for _, x in test_feats]
        labels = [1 if truth[o] else -1 for o, _ in test_feats]
        assert auc == pair_count_auc(scores, labels)


class TestAggregate:
    def test_three_seed_average(self):
        report = aggregate({1: {"soft": 0.8}, 2: {"soft": 0.9}, 3: {"soft": 1.0}})
        assert report.per_adjective["soft"] == pytest.approx(0.9)
        assert report.mean_auc == pytest.approx(0.9)
        assert report.n_seeds == 3

    def test_all_half_gives_half(self):
        aucs = {s: {a: 0.5 for a in ADJECTIVES} for s in (0, 1, 2)}
        assert aggregate(aucs).mean_auc == pytest.approx(0.5)

    def test_mean_invariant_to_adjective_order(self):
        rng = np.random.default_rng(12)
        vals = {a: float(rng.random()) for a in ADJECTIVES[:6]}
        fwd = aggregate({0: dict(vals)})
        rev = aggregate({0: dict(reversed(list(vals.items())))})
        assert fwd.mean_auc == rev.mean_auc

    def test_no_results_rejected(self):
        with pytest.raises(InvalidInputError, match="no evaluation results"):
            aggregate({})
        with pytest.raises(InvalidInputError, match="no adjectives"):
            aggregate({1: {}, 2: {}})

    def test_missing_adjective_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate({1: {"soft": 0.5}, 2: {"hard": 0.5}})

    def test_report_forms_and_fingerprint(self):
        report = aggregate({1: {"soft": 0.8125}, 2: {"soft": 0.875}},
                           config={"epochs": 5})
        kv = report.to_kv_text()
        assert "auc.soft=0.843750" in kv
        assert "mean_auc=0.843750" in kv
        assert f"fingerprint={report.fingerprint}" in kv
        csv = report.to_table_csv()
        assert csv.splitlines()[0] == "adjective,mean_auc,n_seeds"
        assert "soft,0.843750,2" in csv
        again = aggregate({1: {"soft": 0.8125}, 2: {"soft": 0.875}},
                          config={"epochs": 5})
        assert again.fingerprint == report.fingerprint
        other = aggregate({1: {"soft": 0.8125}, 2: {"soft": 0.875}},
                          config={"epochs": 6})
        assert other.fingerprint != report.fingerprint
