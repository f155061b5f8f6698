"""Model graphs, two-phase training, feature extraction, and fusion."""

import dataclasses
import inspect
import re

import numpy as np
import pytest

from hapticnet import features, training
from hapticnet.engine import derive_seed, inner_product, lstm_backward, lstm_forward, relu
from hapticnet.errors import InvalidInputError, InvalidSpecError, NonFiniteGradientError
from hapticnet.features import (
    FeatureVector,
    combine_instances,
    extract_activations,
    fuse_and_train,
    fuse_features,
)
from hapticnet.haptic import InstanceMatrix
from hapticnet.models import (
    BUILDERS,
    HAPTIC_CONV_SPECS,
    DenseLayer,
    Model,
    build_haptic_cnn,
    build_haptic_lstm,
    build_linear_classifier,
    conv_stack_out_len,
)
from hapticnet.training import TrainSchedule, sgd_momentum_step, train

from oracles import max_rel_error, naive_conv1d, numerical_gradient, reference_two_phase_sgd


def random_instances(rng, n):
    return rng.standard_normal((n, 32, 150))


def two_layer_net(in_dim, hidden, seed):
    """fc1 (ReLU) then fc2, seeded as ``reference_two_phase_sgd`` draws them."""
    return Model([DenseLayer("fc1", (in_dim,), hidden, derive_seed(seed, "fc1.weights"),
                             activation="relu"),
                  DenseLayer("fc2", (hidden,), 1, derive_seed(seed, "fc2.weights"))])


class TestHapticCnnGraph:
    def test_all_convs_use_groups_32(self):
        model = build_haptic_cnn(seed=0)
        for name in ("conv1", "conv2", "conv3"):
            assert model.layer(name).spec.groups == 32

    def test_forward_shape_and_tap(self):
        model = build_haptic_cnn(seed=0)
        x = np.random.default_rng(0).standard_normal((32, 150))
        score = model.forward(x)
        assert np.isscalar(score) or score.shape == ()
        assert model.forward(x, tap="conv3").shape == (64, conv_stack_out_len())

    def test_group_isolation_probe(self):
        # perturbing one input channel may change conv3 only within its group
        model = build_haptic_cnn(seed=1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((32, 150))
        base = model.forward(x, tap="conv3")
        for chan in (0, 7, 31):
            bumped = x.copy()
            bumped[chan] += rng.standard_normal(150)
            tapped = model.forward(bumped, tap="conv3")
            changed = np.unique(np.nonzero(np.any(tapped != base, axis=1))[0])
            assert set(changed) <= {2 * chan, 2 * chan + 1}

    def test_parameter_count_closed_form(self):
        model = build_haptic_cnn(seed=0)
        expected = 0
        for spec in HAPTIC_CONV_SPECS:
            expected += spec.out_channels * (spec.in_channels // spec.groups) * spec.kernel_len
            expected += spec.out_channels
        flat = 64 * conv_stack_out_len()
        expected += flat * 1 + 1
        assert sum(value.size for _, value in model.named_params()) == expected

    def test_matches_engine_op_composition(self):
        model = build_haptic_cnn(seed=3)
        x = np.random.default_rng(5).standard_normal((32, 150))
        h = x
        for name in ("conv1", "conv2", "conv3"):
            layer = model.layer(name)
            h = relu(naive_conv1d(h, layer.spec, layer.params.weights, layer.params.bias))
        h = h.reshape(-1)
        fc = model.layer("fc")
        expected = inner_product(h, fc.params)[0]
        assert model.forward(x) == pytest.approx(expected, abs=1e-12)

    def test_conv3_tap_is_batch_invariant(self):
        # one instance alone gives bitwise its conv3 row of a batch of 1, 7 or 128
        model = build_haptic_cnn(seed=4)
        xs = random_instances(np.random.default_rng(4), 128)
        singles = [model.forward(x, tap="conv3") for x in xs]
        for n in (1, 7, 128):
            batched = model.forward(xs[:n], tap="conv3")
            for i in range(n):
                assert np.array_equal(batched[i], singles[i]), (n, i)

    @pytest.mark.parametrize("shape", [(2, 3, 32, 150), (150,)])
    def test_input_rank_rejected(self, shape):
        model = build_haptic_cnn(seed=0)
        with pytest.raises(InvalidInputError, match=re.escape(str(shape))):
            model.forward(np.zeros(shape))

    def test_tapped_forward_runs_no_later_layer(self):
        model = build_haptic_cnn(seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("fc ran after the conv3 tap")

        model.layer("fc").forward = refuse
        x = np.random.default_rng(0).standard_normal((2, 32, 150))
        assert model.forward(x, tap="conv3").shape == (2, 64, conv_stack_out_len())
        instances = [InstanceMatrix(values=v, object_id="o", trial_index=i, finger=0, offset=0)
                     for i, v in enumerate(x)]
        assert len(extract_activations(model, instances, "conv3")) == 2

    def test_unknown_tap_rejected(self):
        model = build_haptic_cnn(seed=0)
        with pytest.raises(InvalidSpecError):
            model.forward(np.zeros((32, 150)), tap="conv9")

    def test_end_to_end_gradient_check(self):
        model = build_haptic_cnn(seed=2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((32, 150))
        _, caches = model.forward_cached(x)
        grads = model.backward(caches, 1.0)
        fc = model.layer("fc")

        def loss_b(bv):
            saved = fc.params.bias.copy()
            fc.params.bias[:] = bv
            out = float(model.forward(x))
            fc.params.bias[:] = saved
            return out

        conv2 = model.layer("conv2")

        def loss_w(wv):
            saved = conv2.params.weights.copy()
            conv2.params.weights[:] = wv
            out = float(model.forward(x))
            conv2.params.weights[:] = saved
            return out

        assert max_rel_error(grads["fc.bias"],
                             numerical_gradient(loss_b, fc.params.bias.copy())) < 1e-4
        assert max_rel_error(grads["conv2.weights"],
                             numerical_gradient(loss_w, conv2.params.weights.copy())) < 1e-4


class TestHapticLstmGraph:
    def test_hidden_size_is_ten(self):
        model = build_haptic_lstm(seed=0)
        assert model.layer("lstm").hidden_size == 10

    @pytest.mark.parametrize("shape", [(2, 3, 32, 150), (150,)])
    def test_input_rank_rejected(self, shape):
        # the message gives the shape the caller passed, not the time-major one
        model = build_haptic_lstm(seed=0)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"lstm layer 'lstm' reads a (C, T) instance or (B, C, T) batch, got shape {shape}")):
            model.forward(np.zeros(shape))

    def test_zero_initialized_scores_zero(self):
        model = build_haptic_lstm(seed=0)
        for _, value in model.named_params():
            value[:] = 0.0
        x = np.random.default_rng(0).standard_normal((32, 150))
        assert model.forward(x) == 0.0

    def test_matches_engine_op_composition(self):
        model = build_haptic_lstm(seed=4)
        x = np.random.default_rng(7).standard_normal((32, 150))
        h = lstm_forward(x.T, model.layer("lstm").params)
        h = relu(inner_product(h, model.layer("fc1").params))
        expected = inner_product(h, model.layer("fc2").params)[0]
        assert model.forward(x) == pytest.approx(expected, abs=1e-12)

    def test_scoring_builds_no_bptt_cache(self, monkeypatch):
        asked = []

        def recording(sequence, params, return_cache=False):
            asked.append(return_cache)
            return lstm_forward(sequence, params, return_cache=return_cache)

        monkeypatch.setattr("hapticnet.models.lstm_forward", recording)
        model = build_haptic_lstm(seed=4)
        x = np.random.default_rng(7).standard_normal((32, 150))
        score = model.forward(x)
        cached, _ = model.forward_cached(x)
        assert asked == [False, True]
        assert score == cached


HAPTIC_BUILDERS = {"cnn": build_haptic_cnn, "lstm": build_haptic_lstm}
# every builder, each with the shape of a batch of 3 of its inputs
BATCHES = {"cnn": (build_haptic_cnn, (3, 32, 150)), "lstm": (build_haptic_lstm, (3, 32, 150)),
           "fusion": (lambda seed: build_linear_classifier(17, seed=seed), (3, 17))}


class TestGraphKeywords:
    """Model.forward skips caches and Model.backward skips the input gradient;
    neither may change a number."""

    @pytest.mark.parametrize("net", sorted(HAPTIC_BUILDERS))
    @pytest.mark.parametrize("shape", [(32, 150), (5, 32, 150)])
    def test_forward_scores_equal_forward_cached(self, net, shape):
        model = HAPTIC_BUILDERS[net](seed=6)
        x = np.random.default_rng(6).standard_normal(shape)
        cached, _ = model.forward_cached(x)
        assert np.array_equal(model.forward(x), cached)

    @pytest.mark.parametrize("net", sorted(HAPTIC_BUILDERS))
    @pytest.mark.parametrize("shape", [(32, 150), (7, 32, 150)])
    def test_backward_equals_layer_by_layer_with_input_grads(self, net, shape):
        model = HAPTIC_BUILDERS[net](seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape)
        score, caches = model.forward_cached(x)
        grad_score = rng.standard_normal(score.shape)
        grads = model.backward(caches, grad_score)
        full = {}
        grad_outs = {}
        grad = np.asarray(grad_score)[..., None]
        for l, cache in zip(reversed(model.layers), reversed(caches)):
            grad_outs[l.name] = grad
            grad, layer_grads = l.backward(cache, grad)  # every input gradient built
            full.update({f"{l.name}.{p}": g for p, g in layer_grads.items()})
        assert grad.shape == x.shape
        assert sorted(grads) == sorted(full)
        for name in full:
            assert np.array_equal(grads[name], full[name]), name
        if net == "lstm":
            # the LSTM reads the instance time-major and swaps its gradient back
            grad_seq = lstm_backward(model.layer("lstm").params, caches[0], grad_outs["lstm"])[0]
            assert np.array_equal(grad, np.swapaxes(grad_seq, -1, -2))

    @pytest.mark.parametrize("net", sorted(BATCHES))
    def test_first_parameterized_layer_builds_no_input_grad(self, net):
        # every layer has parameters, so the first layer is the first parameterized one
        builder, shape = BATCHES[net]
        model = builder(seed=8)
        assert all(l.param_items() for l in model.layers)
        asked = {}
        for l in model.layers:
            def recording(cache, grad_out, input_grad=True, _l=l):
                asked[_l.name] = input_grad
                out = type(_l).backward(_l, cache, grad_out, input_grad=input_grad)
                assert (out[0] is None) == (not input_grad)
                # the parameter gradients are bitwise those built beside an input gradient
                built = type(_l).backward(_l, cache, grad_out)[1]
                assert sorted(out[1]) == sorted(built)
                assert all(np.array_equal(out[1][p], g) for p, g in built.items())
                return out
            l.backward = recording
        _, caches = model.forward_cached(np.random.default_rng(8).standard_normal(shape))
        model.backward(caches, np.ones(3))
        assert asked == {l.name: i > 0 for i, l in enumerate(model.layers)}


class TestModelGraph:
    def test_duplicate_layer_names_rejected(self):
        layers = [DenseLayer("fc", (3,), 3, seed=0), DenseLayer("fc", (3,), 1, seed=0)]
        with pytest.raises(InvalidSpecError, match=r"duplicate layer names: \['fc', 'fc'\]"):
            Model(layers)

    def test_model_needs_a_layer(self):
        with pytest.raises(InvalidSpecError, match="model 'empty' has no layers"):
            Model([], kind="empty")

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_every_layer_has_parameters_and_the_last_classifies(self, kind):
        model = BUILDERS[kind](**({"feature_dim": 5} if kind == "fusion" else {}))
        assert all(l.param_items() for l in model.layers)
        assert model.layers[-1].out_dim == 1

    @pytest.mark.parametrize("shape", [(5, 64, 18), (64, 19, 1), (1216,)])
    def test_dense_layer_rejects_another_trailing_shape(self, shape):
        model = build_haptic_cnn(seed=0)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"dense layer 'fc' expects trailing shape (64, 19), got input shape {shape}")):
            model.layer("fc").forward(np.zeros(shape))

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_builder_records_its_kind_and_arguments(self, kind):
        # a checkpoint names the builder by the model's kind and stores these
        # arguments, which must be the builder's own other than the seed
        takes = inspect.signature(BUILDERS[kind]).parameters.keys() - {"seed"}
        args = {name: 7 for name in takes}
        for seed in (0, 9):
            model = BUILDERS[kind](seed=seed, **args)
            assert model.kind == kind
            assert model.builder_args == args

    def test_model_put_together_by_hand_records_no_builder(self):
        model = Model([DenseLayer("fc", (4,), 1, seed=0)], kind="fusion")
        assert model.builder_args is None


class TestSgdMomentum:
    """The step at training.LR = 0.01 and training.MOMENTUM = 0.9."""

    def test_first_step(self):
        w = np.array([1.0])
        v = np.zeros(1)
        sgd_momentum_step(w, v, np.array([1.0]), "w")
        assert v == pytest.approx([-0.01])
        assert w == pytest.approx([0.99])

    def test_two_steps_compound(self):
        # v1 = -0.01; v2 = 0.9*v1 - 0.01 = -0.019; total decrease 0.029
        w = np.array([1.0])
        v = np.zeros(1)
        for _ in range(2):
            sgd_momentum_step(w, v, np.array([1.0]), "w")
        assert w == pytest.approx([1.0 - 0.029])

    def test_momentum_coast_with_zero_grad(self):
        w = np.array([1.0])
        v = np.array([-0.01])
        sgd_momentum_step(w, v, np.array([0.0]), "w")
        assert w == pytest.approx([1.0 - 0.009])

    def test_non_finite_gradient_aborts(self):
        with pytest.raises(NonFiniteGradientError,
                           match="non-finite gradient for fc.weights: 1 bad entries"):
            sgd_momentum_step(np.zeros(2), np.zeros(2), np.array([1.0, np.nan]), "fc.weights")


class TestTraining:
    def test_linear_model_converges_on_separable_set(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 8))
        w_true = rng.standard_normal(8)
        y = np.where(x @ w_true > 0, 1.0, -1.0)
        model = build_linear_classifier(8, seed=0)
        schedule = TrainSchedule(epochs=200, batch_size=64, seed=0)
        result = train(model, x, y, schedule)
        acc = np.mean(np.sign(model.forward(x)) == y)
        assert acc >= 0.99
        assert not result.diverged
        assert np.all(np.isfinite(result.loss_curve))
        assert result.loss_curve[-1] <= result.loss_curve[0]

    def test_fixed_seed_is_bitwise_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 8))
        y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        runs = []
        for _ in range(2):
            model = build_linear_classifier(8, seed=5)
            train(model, x, y, TrainSchedule(epochs=20, batch_size=16, seed=9))
            runs.append({n: v.copy() for n, v in model.named_params()})
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name])

    def test_a_deep_model_runs_both_phases_and_the_classifier_alone_only_hinge(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 6))
        y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        schedule = TrainSchedule(epochs=5, finetune_epochs=7, batch_size=25, seed=3)
        result = train(two_layer_net(6, 4, seed=1), x, y, schedule)
        assert result.phase_boundaries == {"logistic": (0, 5), "hinge": (5, 12)}
        assert len(result.loss_curve) == 12
        result = train(build_linear_classifier(6, seed=1), x, y, schedule)
        assert result.phase_boundaries == {"hinge": (0, 7)}
        assert len(result.loss_curve) == 7

    @pytest.mark.parametrize("hidden", [None, 4])
    def test_matches_the_plain_numpy_loop(self, hidden):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((70, 6))
        y = np.where(x @ rng.standard_normal(6) + 0.5 * rng.standard_normal(70) > 0, 1.0, -1.0)
        schedule = TrainSchedule(epochs=9, finetune_epochs=6, batch_size=16, seed=11)
        model = build_linear_classifier(6, seed=3) if hidden is None \
            else two_layer_net(6, hidden, seed=3)
        result = train(model, x, y, schedule)
        curve, params = reference_two_phase_sgd(x, y, 3, schedule, hidden=hidden)
        assert len(result.loss_curve) == (6 if hidden is None else 15)
        assert np.allclose(result.loss_curve, curve, rtol=1e-12, atol=1e-12)
        assert len(model.layers) == len(params)
        for layer, (w, b) in zip(model.layers, params):
            assert np.allclose(layer.params.weights, w, rtol=1e-12, atol=1e-12), layer.name
            assert np.allclose(layer.params.bias, b, rtol=1e-12, atol=1e-12), layer.name

    def test_divergence_restores_last_finite_state(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 4)) * 1e306
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        model = build_linear_classifier(4, seed=2)
        # inputs large enough that one epoch's step overflows the next
        # epoch's scores: its loss is non-finite and training must roll back
        # to the last good epoch
        with np.errstate(all="ignore"):
            result = train(model, x, y, TrainSchedule(epochs=40, batch_size=20, seed=0))
        assert result.diverged
        assert len(result.loss_curve) >= 1
        for _, value in model.named_params():
            assert np.all(np.isfinite(value))

    def test_non_finite_epoch_loss_restores_the_weights_without_warning(self):
        # every score is 8e307, so the gradients stay finite but the epoch's
        # loss sum overflows; tier-1 turns a RuntimeWarning into an error
        model = build_linear_classifier(2, seed=0)
        fc = model.layer("fc").params
        fc.weights[:] = 4e307
        bias = fc.bias.copy()
        result = train(model, np.ones((4, 2)), -np.ones(4), TrainSchedule(epochs=3))
        assert result.diverged and result.loss_curve == []
        assert np.all(fc.weights == 4e307) and np.array_equal(fc.bias, bias)

    def test_non_finite_gradient_restores_the_weights_without_warning(self):
        # the scores are 1e10, but fc1's weight gradient is 1e300 * 1e10
        model = Model([DenseLayer("fc1", (1,), 1, seed=0), DenseLayer("fc2", (1,), 1, seed=0)])
        model.layer("fc1").params.weights[:] = 1e-300
        model.layer("fc2").params.weights[:] = 1e300
        before = [value.copy() for _, value in model.named_params()]
        result = train(model, np.full((2, 1), 1e10), -np.ones(2), TrainSchedule(epochs=3))
        assert result.diverged and result.loss_curve == []
        for (name, value), old in zip(model.named_params(), before):
            assert np.array_equal(value, old), name

    def test_rejects_no_instances(self):
        with pytest.raises(InvalidInputError, match="no training instances"):
            train(build_linear_classifier(3), np.zeros((0, 3)), np.zeros(0), TrainSchedule(epochs=1))

    def test_rejects_instances_without_an_instance_axis(self):
        with pytest.raises(InvalidInputError, match=re.escape(
                "training instances need a leading instance axis, got shape ()")):
            train(build_linear_classifier(1), np.float64(1.0), np.ones(1), TrainSchedule(epochs=1))

    @pytest.mark.parametrize("shape", [(3,), (4, 1)])
    def test_rejects_labels_of_another_shape(self, shape):
        with pytest.raises(InvalidInputError, match=re.escape(f"labels shape {shape} != (4,)")):
            train(build_linear_classifier(3), np.zeros((4, 3)), np.ones(shape),
                  TrainSchedule(epochs=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_instance(self, bad):
        # such an input used to surface as divergence with an empty loss curve
        x = np.random.default_rng(3).standard_normal((20, 8))
        x[13, 5] = bad
        x[17, 0] = bad
        with pytest.raises(InvalidInputError, match="training instance 13 holds a non-finite value"):
            train(build_linear_classifier(8), x, np.ones(20), TrainSchedule(epochs=1))

    def test_rejects_bad_labels(self):
        model = build_linear_classifier(3, seed=0)
        with pytest.raises(InvalidInputError):
            train(model, np.zeros((4, 3)), np.array([0.0, 1, 1, -1]), TrainSchedule(epochs=1))

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0}, {"epochs": 2, "finetune_epochs": 0}, {"epochs": 2, "finetune_epochs": -3},
    ])
    def test_schedule_without_epochs_in_a_phase_rejected(self, kwargs):
        with pytest.raises(InvalidSpecError, match="bad schedule"):
            TrainSchedule(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("batch_size", 2.5), ("finetune_epochs", 1.5), ("epochs", True),
        ("batch_size", False), ("finetune_epochs", "3"),
    ])
    def test_count_that_is_not_an_integer_rejected(self, field, value):
        # range() would raise a bare TypeError for 2.5, and True would run one epoch
        with pytest.raises(InvalidSpecError,
                           match=re.escape(f"bad schedule: {field} must be a positive "
                                           f"integer, got {value!r}")):
            TrainSchedule(**{field: value})

    @pytest.mark.parametrize("seed", [1.0, True, "a", None])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        with pytest.raises(InvalidSpecError,
                           match=re.escape(f"bad schedule: seed must be an integer, got {seed!r}")):
            TrainSchedule(seed=seed)

    def test_numpy_counts_accepted(self):
        schedule = TrainSchedule(epochs=np.int64(3), batch_size=np.int32(8))
        assert schedule.finetune_epochs == 3

    def test_schedule_sets_only_counts_and_the_seed(self):
        # the step size and momentum are the recipe's, and the model decides the phases
        assert [f.name for f in dataclasses.fields(TrainSchedule)] == [
            "epochs", "batch_size", "seed", "finetune_epochs"]
        assert (training.LR, training.MOMENTUM) == (0.01, 0.9)


class TestExtraction:
    def make(self, rng, n=6):
        return [
            InstanceMatrix(values=rng.standard_normal((32, 150)), object_id=f"o{i % 3}",
                           trial_index=i, finger=0, offset=0)
            for i in range(n)
        ]

    def test_conv3_features_non_negative(self):
        model = build_haptic_cnn(seed=0)
        feats = extract_activations(model, self.make(np.random.default_rng(0)), "conv3")
        assert all(np.all(f.values >= 0) for f in feats)
        assert all(f.values.shape == (64 * conv_stack_out_len(),) for f in feats)

    def test_identical_instances_identical_features(self):
        model = build_haptic_cnn(seed=0)
        inst = self.make(np.random.default_rng(1), n=1)[0]
        twin = InstanceMatrix(values=inst.values.copy(), object_id=inst.object_id,
                              trial_index=9, finger=1, offset=2)
        a, b = extract_activations(model, [inst, twin], "conv3")
        assert np.array_equal(a.values, b.values)

    def test_unknown_tap_layer_rejected(self):
        model = build_haptic_cnn(seed=0)
        with pytest.raises(InvalidSpecError):
            extract_activations(model, self.make(np.random.default_rng(2)), "blah")

    def test_pure_function_of_checkpoint_and_instance(self):
        model = build_haptic_cnn(seed=3)
        instances = self.make(np.random.default_rng(3))
        first = extract_activations(model, instances, "conv3")
        second = extract_activations(model, instances, "conv3")
        for a, b in zip(first, second):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("batch", [1, 64, 256])
    def test_features_do_not_depend_on_the_extraction_batch(self, batch, monkeypatch):
        # conv3 taps are bitwise batch-invariant, so chunking changes no feature
        model = build_haptic_cnn(seed=5)
        instances = self.make(np.random.default_rng(5), n=70)
        whole = extract_activations(model, instances, "conv3")
        monkeypatch.setattr(features, "EXTRACT_BATCH", batch)
        chunked = extract_activations(model, instances, "conv3")
        assert [f.index for f in chunked] == [f.index for f in whole]
        assert all(np.array_equal(a.values, b.values) for a, b in zip(chunked, whole))

    def test_extraction_batch_keeps_conv1_windows_small(self):
        # conv1's im2col window tensor for one extraction batch: 8.6 MB at 64
        # instances, 34 MB at 256
        spec = HAPTIC_CONV_SPECS[0]
        window_bytes = (features.EXTRACT_BATCH * spec.in_channels * spec.kernel_len
                        * spec.out_len(150) * 8)
        assert window_bytes <= 10e6


class TestCombineInstances:
    def make_features(self, rng, count, length=7):
        return [
            FeatureVector(object_id="obj", index=(t, 0, 0),
                          values=rng.standard_normal(length))
            for t in range(count)
        ]

    def test_ten_features_concatenate(self):
        feats = self.make_features(np.random.default_rng(0), 10)
        combined = combine_instances(feats, expected_count=10)
        assert combined.values.shape == (70,)

    def test_slices_recover_inputs(self):
        feats = self.make_features(np.random.default_rng(1), 10)
        combined = combine_instances(feats, expected_count=10)
        for t in range(10):
            assert np.array_equal(combined.values[7 * t:7 * (t + 1)], feats[t].values)

    def test_canonical_order_ignores_arrival(self):
        rng = np.random.default_rng(2)
        feats = self.make_features(rng, 8)
        shuffled = [feats[i] for i in rng.permutation(8)]
        assert np.array_equal(combine_instances(feats, 8).values,
                              combine_instances(shuffled, 8).values)

    def test_count_mismatch_rejected(self):
        feats = self.make_features(np.random.default_rng(3), 9)
        with pytest.raises(InvalidInputError):
            combine_instances(feats, expected_count=10)

    @pytest.mark.parametrize("count", [0, -1])
    def test_expected_count_below_one_rejected(self, count):
        with pytest.raises(InvalidInputError, match=re.escape(
                f"expected_count must be at least 1, got {count}")):
            combine_instances([], count)

    def test_features_of_several_objects_rejected(self):
        feats = self.make_features(np.random.default_rng(4), 4)
        feats[2] = FeatureVector("other", feats[2].index, feats[2].values)
        with pytest.raises(InvalidInputError, match=r"multiple objects: \['obj', 'other'\]"):
            combine_instances(feats, expected_count=4)

    def test_features_of_differing_lengths_rejected(self):
        feats = self.make_features(np.random.default_rng(5), 4)
        feats[1] = FeatureVector("obj", feats[1].index, np.zeros(5))
        with pytest.raises(InvalidInputError, match=r"differing lengths: \[5, 7\]"):
            combine_instances(feats, expected_count=4)

    def test_duplicate_indices_rejected(self):
        feats = self.make_features(np.random.default_rng(6), 4)
        feats[3] = FeatureVector("obj", feats[0].index, feats[3].values)
        with pytest.raises(InvalidInputError, match="duplicate feature indices for object obj"):
            combine_instances(feats, expected_count=4)


class TestFusion:
    def make_modalities(self, rng, n=20, d_h=6, d_v=4):
        haptic = [FeatureVector(f"o{i}", (), rng.standard_normal(d_h)) for i in range(n)]
        visual = [FeatureVector(f"o{i}", (), rng.standard_normal(d_v)) for i in range(n)]
        return haptic, visual

    def test_fused_length_is_sum(self):
        haptic, visual = self.make_modalities(np.random.default_rng(0))
        fused = fuse_features(haptic, visual)
        assert all(f.values.shape == (10,) for f in fused)

    def test_provenance_mismatch_rejected(self):
        haptic, visual = self.make_modalities(np.random.default_rng(1))
        with pytest.raises(InvalidInputError, match="o3"):
            fuse_features(haptic, [v for v in visual if v.object_id != "o3"])

    def test_duplicate_object_ids_rejected(self):
        haptic, visual = self.make_modalities(np.random.default_rng(5))
        with pytest.raises(InvalidInputError, match="duplicate object ids"):
            fuse_features(haptic + haptic[:1], visual)
        with pytest.raises(InvalidInputError, match="duplicate object ids"):
            fuse_features(haptic, visual + visual[2:3])

    @pytest.mark.parametrize("modality", ["haptic", "visual"])
    def test_feature_lengths_that_differ_across_objects_rejected(self, modality):
        haptic, visual = self.make_modalities(np.random.default_rng(6), n=4)
        feats = {"haptic": haptic, "visual": visual}[modality]
        feats[2] = FeatureVector("o2", (), np.zeros(3))
        length = feats[0].values.shape[0]
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{modality} feature lengths differ across objects: "
                f"{{{length}: ['o0', 'o1', 'o3'], 3: ['o2']}}")):
            fuse_features(haptic, visual)

    def test_classifier_score_is_affine(self):
        haptic, visual = self.make_modalities(np.random.default_rng(2))
        labels = {f"o{i}": 1.0 if i % 2 else -1.0 for i in range(20)}
        result = fuse_and_train(haptic, visual, labels,
                                TrainSchedule(epochs=10, batch_size=20, seed=0))
        model = result.model
        x = np.random.default_rng(3).standard_normal(10)
        s1 = model.forward(x)
        s2 = model.forward(2.0 * x)
        bias = model.forward(np.zeros(10))
        assert s2 == pytest.approx(2.0 * s1 - bias, abs=1e-9)

    def test_scores_depend_only_on_haptic_segment_when_visual_zeroed(self):
        haptic, visual = self.make_modalities(np.random.default_rng(4))
        labels = {f"o{i}": 1.0 if i % 2 else -1.0 for i in range(20)}
        model = fuse_and_train(haptic, visual, labels,
                               TrainSchedule(epochs=5, batch_size=20, seed=1)).model
        rng = np.random.default_rng(5)
        h = rng.standard_normal(6)
        a = np.concatenate([h, np.zeros(4)])
        b = np.concatenate([h, np.zeros(4)])
        assert model.forward(a) == model.forward(b)
        w = model.layer("fc").params.weights[0]
        expected = float(h @ w[:6] + model.layer("fc").params.bias[0])
        assert model.forward(a) == pytest.approx(expected, abs=1e-12)

    def test_matches_the_plain_numpy_hinge_loop(self):
        haptic, visual = self.make_modalities(np.random.default_rng(7))
        labels = {f"o{i}": 1.0 if i % 3 else -1.0 for i in range(20)}
        schedule = TrainSchedule(epochs=9, batch_size=8, seed=4)
        result = fuse_and_train(haptic, visual, labels, schedule)
        fused = fuse_features(haptic, visual)
        x = np.stack([f.values for f in fused])
        y = np.array([labels[f.object_id] for f in fused])
        curve, [(w, b)] = reference_two_phase_sgd(x, y, 4, schedule)
        fc = result.model.layer("fc").params
        assert result.phase_boundaries == {"hinge": (0, 9)}
        assert np.allclose(result.loss_curve, curve, rtol=1e-12, atol=1e-12)
        assert np.allclose(fc.weights, w, rtol=1e-12, atol=1e-12)
        assert np.allclose(fc.bias, b, rtol=1e-12, atol=1e-12)

    def test_no_objects_rejected(self):
        with pytest.raises(InvalidInputError, match="no objects to fuse"):
            fuse_and_train([], [], {}, TrainSchedule(epochs=1))

    def test_missing_labels_rejected(self):
        haptic, visual = self.make_modalities(np.random.default_rng(6), n=4)
        with pytest.raises(InvalidInputError):
            fuse_and_train(haptic, visual, {"o0": 1.0},
                           TrainSchedule(epochs=1, batch_size=4, seed=0))
