import itertools
import json
import math

import numpy as np
import pytest

from arfdx import models
from arfdx.models import (
    ArrayDataset,
    Diverged,
    HyperParams,
    ModelError,
    ModelKind,
    ModelSpec,
    SweepGrid,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    sgd_step,
    sweep,
    train_stacked,
)
from oracles import (
    finite_diff_grads, gradients, loss, max_relative_error, predict_patient, predict_reference,
    random_gradcheck_instance, sgd_step_reference, train_reference,
)

ALL_SPECS = [
    ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=7),
    ModelSpec(ModelKind.EHR_TWO_LAYER, ehr_dim=7),
    ModelSpec(ModelKind.IMAGE_LINEAR, emb_dim=5),
    ModelSpec(ModelKind.COMBINED_DIRECT, ehr_dim=7, emb_dim=5),
    ModelSpec(ModelKind.COMBINED_HIDDEN, ehr_dim=7, emb_dim=5),
]


def zero_params(spec):
    return {name: np.zeros(shape) for name, shape in spec.param_shapes().items()}


class TestForward:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
    def test_zero_parameters_give_half(self, spec):
        ehr = np.ones((2, spec.ehr_dim)) if spec.needs_ehr else None
        emb = np.ones((2, spec.emb_dim)) if spec.needs_emb else None
        probs = forward(spec, zero_params(spec), ehr, emb)
        assert np.allclose(probs, 0.5)

    def test_single_weight_log_odds(self):
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=4)
        params = zero_params(spec)
        params["W"][1, 2] = math.log(3.0)
        x = np.zeros((1, 4))
        x[0, 2] = 1.0
        probs = forward(spec, params, ehr=x)
        assert probs[0, 1] == pytest.approx(0.75, abs=1e-12)
        assert probs[0, 0] == pytest.approx(0.5)

    def test_combined_direct_with_zero_image_weights_matches_ehr_linear(self):
        rng = np.random.default_rng(7)
        d, e = 6, 4
        ehr_spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=d)
        ehr_params = init_params(ehr_spec, rng)
        combined_spec = ModelSpec(ModelKind.COMBINED_DIRECT, ehr_dim=d, emb_dim=e)
        combined_params = zero_params(combined_spec)
        combined_params["W"][:, e:] = ehr_params["W"]
        combined_params["b"][:] = ehr_params["b"]
        x = rng.integers(0, 2, size=(10, d)).astype(float)
        emb = rng.normal(size=(10, e))
        lhs = forward(combined_spec, combined_params, ehr=x, emb=emb)
        rhs = forward(ehr_spec, ehr_params, ehr=x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
    def test_outputs_strictly_inside_unit_interval(self, spec):
        rng = np.random.default_rng(8)
        params, ehr, emb, _ = random_gradcheck_instance(spec, rng)
        probs = forward(spec, params, ehr, emb)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_missing_required_input_raises(self):
        spec = ModelSpec(ModelKind.COMBINED_DIRECT, ehr_dim=3, emb_dim=2)
        with pytest.raises(ModelError):
            forward(spec, zero_params(spec), ehr=np.ones((1, 3)), emb=None)

    def test_shape_mismatch_raises(self):
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=3)
        with pytest.raises(ModelError):
            forward(spec, zero_params(spec), ehr=np.ones((1, 5)))


class TestLoss:
    def test_half_probability(self):
        assert loss(np.array([[0.5]]), np.array([[1.0]])) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        assert loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])) < 1e-6

    def test_three_output_example(self):
        value = loss(np.array([[0.9, 0.5, 0.1]]), np.array([[1.0, 0.0, 0.0]]))
        assert value == pytest.approx(0.9038682118755978, abs=1e-9)

    def test_batch_mean(self):
        probs = np.array([[0.5], [0.5]])
        y = np.array([[1.0], [0.0]])
        assert loss(probs, y) == pytest.approx(math.log(2.0))


class TestBackward:
    def test_single_sample_linear_gradient(self):
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=4)
        x = np.zeros((1, 4))
        x[0, 2] = 1.0
        y = np.array([[1.0, 0.0, 0.0]])
        grads = gradients(spec, zero_params(spec), x, None, y)
        assert grads["W"][0, 2] == pytest.approx(-0.5, abs=1e-12)
        assert grads["W"][1, 2] == pytest.approx(0.5, abs=1e-12)

    def test_gradient_vanishes_at_interior_optimum(self):
        # symmetric labels make p = 0.5 the optimum, reached at zero params
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=2)
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        grads = gradients(spec, zero_params(spec), x, None, y)
        assert max(np.abs(g).max() for g in grads.values()) < 1e-6

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(9)
        for _ in range(5):
            params, ehr, emb, y = random_gradcheck_instance(spec, rng)
            analytic = gradients(spec, params, ehr, emb, y)
            numeric = finite_diff_grads(spec, params, ehr, emb, y)
            assert max_relative_error(analytic, numeric) < 1e-4


class TestSgdStep:
    def hp(self, lr=0.1, momentum=0.9, wd=0.0):
        return HyperParams(learning_rate=lr, momentum=momentum, weight_decay=wd)

    def test_first_step(self):
        params, velocity = {"w": np.array([0.0])}, {"w": np.array([0.0])}
        new_params, new_velocity = sgd_step_reference(params, velocity, {"w": np.array([1.0])}, self.hp())
        assert new_params["w"][0] == pytest.approx(-0.1, abs=1e-15)
        assert new_velocity["w"][0] == pytest.approx(1.0)

    def test_second_identical_step_accumulates_momentum(self):
        params, velocity = {"w": np.array([0.0])}, {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        params, velocity = sgd_step_reference(params, velocity, grads, self.hp())
        params, velocity = sgd_step_reference(params, velocity, grads, self.hp())
        assert velocity["w"][0] == pytest.approx(1.9, abs=1e-12)
        assert params["w"][0] == pytest.approx(-0.29, abs=1e-12)

    def test_decay_only_step(self):
        params, velocity = {"w": np.array([1.0])}, {"w": np.array([0.0])}
        new_params, _ = sgd_step_reference(params, velocity, {"w": np.array([0.0])},
                                           self.hp(lr=1.0, momentum=0.0, wd=0.1))
        assert new_params["w"][0] == pytest.approx(0.9, abs=1e-15)

    def test_reduces_to_vanilla_gradient_descent(self):
        rng = np.random.default_rng(10)
        theta = rng.normal(size=(3, 4))
        grad = rng.normal(size=(3, 4))
        hp = HyperParams(learning_rate=0.05, momentum=0.0, weight_decay=0.0)
        new_params, _ = sgd_step_reference({"w": theta}, {"w": np.zeros_like(theta)}, {"w": grad}, hp)
        assert np.array_equal(new_params["w"], theta - 0.05 * grad)

    def test_non_finite_update_raises(self):
        params, velocity = {"w": np.array([0.0])}, {"w": np.array([0.0])}
        with pytest.raises(Diverged):
            sgd_step_reference(params, velocity, {"w": np.array([np.inf])}, self.hp())

    def test_in_place_update_equals_the_functional_reference(self):
        # 50 steps on flat (G, P) buffers against the reference per config,
        # with two configs leaving the stack after step 25
        rng = np.random.default_rng(11)
        hps = [HyperParams(float(lr), float(m), float(wd)) for lr, m, wd in zip(
            rng.choice(models.LEARNING_RATE_GRID, 5), rng.choice(models.MOMENTUM_GRID, 5),
            rng.choice(models.WEIGHT_DECAY_GRID, 5),
        )]
        theta = rng.normal(size=(5, 17))
        velocity = np.zeros_like(theta)
        grads, scratch = np.empty_like(theta), np.empty_like(theta)
        reference = [({"w": row.copy()}, {"w": np.zeros(17)}) for row in theta]
        active = np.arange(5)
        rates = HyperParams(*(np.array(column).reshape(5, 1) for column in zip(*hps)))
        for step in range(50):
            if step == 25:
                keep = np.array([True, False, True, True, False])
                active = active[keep]
                theta, velocity, grads, scratch = theta[keep], velocity[keep], grads[keep], scratch[keep]
                rates = HyperParams(*(rate[keep] for rate in rates))
            step_grads = rng.normal(size=theta.shape)
            grads[...] = step_grads
            sgd_step(theta, velocity, grads, scratch, rates)
            for row, g in enumerate(active):
                reference[g] = sgd_step_reference(*reference[g], {"w": step_grads[row]}, hps[g])
                assert np.array_equal(theta[row], reference[g][0]["w"])
                assert np.array_equal(velocity[row], reference[g][1]["w"])


def separable_dataset(n, rng):
    """Each diagnosis is a deterministic read of one feature column."""
    x = rng.integers(0, 2, size=(n, 4)).astype(float)
    y = np.stack([x[:, 0], x[:, 1], x[:, 2]], axis=1)
    return ArrayDataset(labels=y, ehr=x)


class TestTrain:
    def test_reaches_perfect_auroc_on_separable_data(self):
        rng = np.random.default_rng(12)
        train_set = separable_dataset(20, rng)
        val_set = separable_dataset(12, rng)
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=4)
        hp = HyperParams(learning_rate=0.5, weight_decay=1e-4)
        _, history = train_stacked(spec, [hp], train_set, val_set, seed=0, max_epochs=60)[0]
        assert max(history.val_auroc) == pytest.approx(1.0)

    def test_patience_counts_five_stale_epochs(self):
        # constant zero features keep every prediction tied, so validation
        # macro AUROC is exactly 0.5 each epoch
        x = np.zeros((8, 1))
        y = np.zeros((8, 3))
        y[:4, :] = 1.0
        data = ArrayDataset(labels=y, ehr=x)
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=1)
        _, history = train_stacked(spec, [HyperParams(learning_rate=0.1)], data, data, seed=1, max_epochs=50)[0]
        assert history.best_epoch == 1
        assert len(history.val_auroc) == 6

    def test_same_seed_bit_identical_parameters(self):
        rng = np.random.default_rng(13)
        train_set = separable_dataset(24, rng)
        val_set = separable_dataset(10, rng)
        spec = ModelSpec(ModelKind.EHR_TWO_LAYER, ehr_dim=4)
        hp = HyperParams(learning_rate=0.1)
        params_a, _ = train_stacked(spec, [hp], train_set, val_set, seed=42, max_epochs=5)[0]
        params_b, _ = train_stacked(spec, [hp], train_set, val_set, seed=42, max_epochs=5)[0]
        assert all(np.array_equal(params_a[k], params_b[k]) for k in params_a)

    def test_returns_best_checkpoint(self):
        from arfdx.evaluation import macro_auroc

        rng = np.random.default_rng(14)
        train_set = separable_dataset(30, rng)
        val_set = separable_dataset(14, rng)
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=4)
        params, history = train_stacked(spec, [HyperParams(learning_rate=0.3)], train_set, val_set, seed=3,
                                        max_epochs=12)[0]
        returned = macro_auroc(forward(spec, params, ehr=val_set.ehr), val_set.labels)
        assert returned == pytest.approx(max(history.val_auroc), abs=1e-12)
        assert history.val_auroc[history.best_epoch - 1] == pytest.approx(max(history.val_auroc))


def noisy_dataset(n, rng):
    """EHR bits and a 3-wide embedding that each carry some label signal."""
    x = rng.integers(0, 2, size=(n, 4)).astype(float)
    y = (x[:, :3] + rng.normal(0.0, 0.7, size=(n, 3)) > 0.5).astype(float)
    emb = y + rng.normal(0.0, 1.0, size=(n, 3))
    return ArrayDataset(labels=y, ehr=x, emb=emb)


STACK_SPECS = [ModelSpec(kind, ehr_dim=4, emb_dim=3) for kind in ModelKind]

# configs that stop at different epochs: lr 1e-12 barely moves the
# validation ranking and runs out of patience, and others still improve at
# the shared cap
STACK_HPS = [
    HyperParams(learning_rate=1e-12, momentum=0.9, weight_decay=1e-4),
    HyperParams(learning_rate=0.5, momentum=0.9, weight_decay=1e-4),
    HyperParams(learning_rate=0.05, momentum=0.8, weight_decay=1e-2),
    HyperParams(learning_rate=0.5, momentum=0.8, weight_decay=1e-3),
]
STACK_MAX_EPOCHS = 7


class TestTrainStacked:
    @pytest.mark.parametrize("hps", [STACK_HPS, STACK_HPS[1:2]], ids=["grid", "one_config"])
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda s: s.kind.value)
    def test_each_config_equals_the_reference_loop(self, spec, hps):
        rng = np.random.default_rng(18)
        train_set, val_set = noisy_dataset(70, rng), noisy_dataset(30, rng)
        stacked = train_stacked(spec, hps, train_set, val_set, seed=5, max_epochs=STACK_MAX_EPOCHS)
        epochs_run = []
        for hp, (params, history) in zip(hps, stacked):
            ref_params, ref_aurocs, ref_best_epoch = train_reference(
                spec, hp, train_set, val_set, seed=5, max_epochs=STACK_MAX_EPOCHS
            )
            assert history.val_auroc == ref_aurocs
            assert history.best_epoch == ref_best_epoch
            assert params.keys() == ref_params.keys()
            for name in params:
                assert params[name].shape == ref_params[name].shape
                assert np.array_equal(params[name], ref_params[name])
            epochs_run.append(len(history.val_auroc))
        if len(hps) > 1:
            # configs left the stack at different epochs, by patience and by max_epochs
            assert len(set(epochs_run)) >= 2
            assert any(run < STACK_MAX_EPOCHS for run in epochs_run)
            assert any(run == STACK_MAX_EPOCHS for run in epochs_run)

    def test_empty_config_list_raises(self):
        data = noisy_dataset(10, np.random.default_rng(21))
        with pytest.raises(ModelError):
            train_stacked(STACK_SPECS[0], [], data, data, seed=0, max_epochs=5)

    def test_huge_learning_rate_diverges_naming_the_epoch(self):
        rng = np.random.default_rng(22)
        data = noisy_dataset(40, rng)
        hps = [HyperParams(learning_rate=0.1), HyperParams(learning_rate=1e308)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Diverged, match=r"^epoch 1: non-finite update"):
                train_stacked(STACK_SPECS[1], hps, data, data, seed=0, max_epochs=5)

    @pytest.mark.parametrize("rate, epoch", [(1e40, 2), (1e20, 3)])
    def test_divergence_after_the_first_epoch_names_its_epoch(self, rate, epoch):
        # weight decay times learning rate multiplies theta by about -rate**2
        # a step, so it overflows after a few of the two batches per epoch
        data = noisy_dataset(40, np.random.default_rng(22))
        hps = [HyperParams(learning_rate=0.1), HyperParams(learning_rate=rate, momentum=0.9, weight_decay=rate)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Diverged, match=rf"^epoch {epoch}: non-finite update"):
                train_stacked(STACK_SPECS[1], hps, data, data, seed=0, max_epochs=10)

    def test_default_grid_size_equals_the_reference_loop(self):
        rng = np.random.default_rng(19)
        train_set, val_set = noisy_dataset(40, rng), noisy_dataset(20, rng)
        grid = SweepGrid()
        hps = [HyperParams(*rates) for rates in
               itertools.product(grid.learning_rates, grid.momentums, grid.weight_decays)]
        assert len(hps) == 48
        spec = STACK_SPECS[4]  # combined_hidden
        stacked = train_stacked(spec, hps, train_set, val_set, seed=8, max_epochs=3)
        for config in (0, 17, 47):
            params, history = stacked[config]
            ref_params, ref_aurocs, ref_best_epoch = train_reference(
                spec, hps[config], train_set, val_set, seed=8, max_epochs=3
            )
            assert history.val_auroc == ref_aurocs
            assert history.best_epoch == ref_best_epoch
            assert all(np.array_equal(params[name], ref_params[name]) for name in ref_params)


class TestSweep:
    def test_full_grid_size_per_architecture(self):
        rng = np.random.default_rng(25)
        data = _with_emb(separable_dataset(12, rng), rng)
        result = sweep("image", SweepGrid(max_epochs=1), data, data, seed=0)
        assert len(result.runs) == 6 * 2 * 4

    def test_enumeration_is_learning_rate_major(self):
        rng = np.random.default_rng(26)
        data = separable_dataset(12, rng)
        grid = SweepGrid(learning_rates=(1.0, 2.0), momentums=(0.8,), weight_decays=(0.1, 0.2), max_epochs=1)
        runs = sweep("ehr", grid, data, data, seed=0).runs
        flattened = [(run.hp.learning_rate, run.hp.weight_decay, run.spec.kind) for run in runs]
        assert flattened == [
            (1.0, 0.1, ModelKind.EHR_LINEAR),
            (1.0, 0.1, ModelKind.EHR_TWO_LAYER),
            (1.0, 0.2, ModelKind.EHR_LINEAR),
            (1.0, 0.2, ModelKind.EHR_TWO_LAYER),
            (2.0, 0.1, ModelKind.EHR_LINEAR),
            (2.0, 0.1, ModelKind.EHR_TWO_LAYER),
            (2.0, 0.2, ModelKind.EHR_LINEAR),
            (2.0, 0.2, ModelKind.EHR_TWO_LAYER),
        ]

    def test_grid_of_one_returns_that_config(self):
        rng = np.random.default_rng(15)
        train_set = separable_dataset(20, rng)
        val_set = separable_dataset(10, rng)
        grid = SweepGrid(learning_rates=(0.2,), momentums=(0.9,), weight_decays=(1e-3,), max_epochs=4)
        result = sweep("image", grid, _with_emb(train_set, rng), _with_emb(val_set, rng), seed=0)
        assert result.spec.kind is ModelKind.IMAGE_LINEAR
        assert result.hp.learning_rate == 0.2
        assert len(result.runs) == 1

    def test_dominant_config_is_chosen(self):
        rng = np.random.default_rng(16)
        train_set = separable_dataset(30, rng)
        val_set = separable_dataset(14, rng)
        grid = SweepGrid(learning_rates=(1e-12, 0.5), momentums=(0.9,), weight_decays=(1e-4,), max_epochs=8)
        result = sweep("ehr", grid, train_set, val_set, seed=4)
        assert result.hp.learning_rate == 0.5
        assert len(result.runs) == 4  # 2 learning rates x 2 architectures
        assert result.val_auroc == max(run.val_auroc for run in result.runs)

    def test_winner_matches_reference_loop_in_grid_order(self):
        rng = np.random.default_rng(23)
        train_set, val_set = noisy_dataset(60, rng), noisy_dataset(30, rng)
        grid = SweepGrid(learning_rates=(1e-12, 0.5, 0.05), momentums=(0.9,), weight_decays=(1e-4, 1e-2),
                         max_epochs=10)
        result = sweep("combined", grid, train_set, val_set, seed=6)
        configs = [
            (kind, HyperParams(lr, momentum, wd))
            for lr in grid.learning_rates for momentum in grid.momentums for wd in grid.weight_decays
            for kind in models.FAMILIES["combined"]
        ]
        assert len(result.runs) == len(configs)
        best = None
        for (kind, hp), run in zip(configs, result.runs):
            spec = ModelSpec(kind, ehr_dim=4, emb_dim=3)
            params, aurocs, best_epoch = train_reference(spec, hp, train_set, val_set, seed=6,
                                                         max_epochs=grid.max_epochs)
            assert (run.spec, run.hp) == (spec, hp)
            assert run.val_auroc == aurocs[best_epoch - 1]
            if best is None or run.val_auroc > best[2]:
                best = (spec, hp, run.val_auroc, params, best_epoch)
        assert (result.spec, result.hp, result.val_auroc) == best[:3]
        assert result.history.best_epoch == best[4]
        assert all(np.array_equal(result.params[k], best[3][k]) for k in best[3])

    def test_tie_goes_to_the_earlier_grid_entry(self):
        rng = np.random.default_rng(24)
        train_set, val_set = noisy_dataset(40, rng), noisy_dataset(20, rng)
        # both learning rates leave the initial ranking in place: equal AUROC
        grid = SweepGrid(learning_rates=(1e-13, 1e-12), momentums=(0.9,), weight_decays=(1e-4,), max_epochs=4)
        result = sweep("image", grid, train_set, val_set, seed=7)
        assert result.runs[0].val_auroc == result.runs[1].val_auroc
        assert result.hp.learning_rate == 1e-13


def _with_emb(data, rng):
    emb = np.stack([data.labels[:, 0] * 2 - 1, rng.normal(size=len(data)), rng.normal(size=len(data))], axis=1)
    return ArrayDataset(labels=data.labels, ehr=data.ehr, emb=emb)


class TestPredictPatient:
    def test_average_over_study_images(self):
        spec = ModelSpec(ModelKind.IMAGE_LINEAR, emb_dim=1)
        params = {"W": np.ones((3, 1)), "b": np.zeros(3)}
        logit = lambda p: math.log(p / (1 - p))
        probs = predict(spec, params, None, np.array([[logit(0.6)], [logit(0.8)]]), [2])
        assert probs.shape == (1, 3)
        assert probs[0] == pytest.approx([0.7, 0.7, 0.7], abs=1e-12)

    def test_single_image_is_its_own_prediction(self):
        spec = ModelSpec(ModelKind.IMAGE_LINEAR, emb_dim=2)
        params = {"W": np.zeros((3, 2)), "b": np.array([1.0, 0.0, -1.0])}
        probs = predict(spec, params, None, np.array([[5.0, -3.0]]), [1])
        expected = 1.0 / (1.0 + np.exp(-np.array([1.0, 0.0, -1.0])))
        assert probs[0] == pytest.approx(expected)

    def test_ehr_model_ignores_images(self):
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=2)
        params = {"W": np.ones((3, 2)), "b": np.zeros(3)}
        x = np.array([[1.0, 0.0]])
        with_images = predict(spec, params, x, np.array([[99.0], [98.0]]), [2])
        without = predict(spec, params, x, None, None)
        assert np.array_equal(with_images, without)

    def test_image_model_requires_an_image(self):
        spec = ModelSpec(ModelKind.IMAGE_LINEAR, emb_dim=2)
        params = {"W": np.zeros((3, 2)), "b": np.zeros(3)}
        with pytest.raises(ModelError):
            predict(spec, params, None, np.ones((2, 2)), [2, 0])

    def test_rows_must_match_counted_images(self):
        spec = ModelSpec(ModelKind.COMBINED_DIRECT, ehr_dim=2, emb_dim=2)
        with pytest.raises(ModelError):
            predict(spec, zero_params(spec), np.ones((2, 2)), np.ones((4, 2)), [2, 1])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
    def test_matches_the_per_patient_loop(self, spec):
        rng = np.random.default_rng(23)
        params = init_params(spec, rng)
        n = 40
        counts = rng.integers(1, 4, size=n)
        ehr = rng.integers(0, 2, size=(n, 7)).astype(float)
        emb = rng.normal(size=(int(counts.sum()), 5))
        got = predict(spec, params, ehr, emb, counts)
        starts = np.cumsum(counts) - counts
        expected = np.stack([
            predict_patient(spec, params, ehr_x=ehr[i], embeddings=list(emb[starts[i] : starts[i] + counts[i]]))
            for i in range(n)
        ])
        assert got.shape == (n, 3)
        assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
    def test_equals_the_forward_over_repeated_rows(self, spec):
        # the EHR part (features or hidden units) is computed once per patient
        # and repeated per image; the result must not change by a bit
        rng = np.random.default_rng(24)
        params = init_params(spec, rng)
        counts = np.tile(np.arange(1, 5), 15)
        ehr = rng.integers(0, 2, size=(counts.size, 7)).astype(float)
        emb = rng.normal(size=(int(counts.sum()), 5))
        got = predict(spec, params, ehr, emb, counts)
        assert np.array_equal(got, predict_reference(spec, params, ehr, emb, counts))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        spec = ModelSpec(ModelKind.COMBINED_HIDDEN, ehr_dim=5, emb_dim=3)
        params = init_params(spec, rng)
        hp = HyperParams()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, spec, params, hp, 40, seed=9, val_metrics={"macro_auroc": 0.8})
        assert json.loads(path.read_text())["hyper"] == {
            "learning_rate": 0.1, "momentum": 0.9, "weight_decay": 1e-4,
            "batch_size": 32, "patience": 5, "max_epochs": 40,
        }
        loaded = load_checkpoint(path)
        assert loaded.spec == spec
        assert loaded.hp == hp
        assert loaded.seed == 9
        assert all(np.allclose(loaded.params[k], params[k]) for k in params)

    def test_shape_validation(self, tmp_path):
        spec = ModelSpec(ModelKind.EHR_LINEAR, ehr_dim=3)
        params = zero_params(spec)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, spec, params, HyperParams(), 100, seed=0, val_metrics={})
        payload = json.loads(path.read_text())
        payload["params"]["W"]["shape"] = [3, 99]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match="shape"):
            load_checkpoint(path)

    def test_hidden_layer_size_is_pinned(self, tmp_path):
        spec = ModelSpec(ModelKind.EHR_TWO_LAYER, ehr_dim=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, spec, zero_params(spec), HyperParams(), 100, seed=0, val_metrics={})
        payload = json.loads(path.read_text())
        payload["spec"]["hidden"] = 50
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError):
            load_checkpoint(path)
