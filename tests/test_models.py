import numpy as np
import pytest

from reference import reference_fault_dataset, reference_rul_dataset, reference_synth_features
from valvehealth import models, tinynn
from valvehealth.errors import CsvFormatError, ExtractionError, ParameterError
from valvehealth.models import (Dataset, build_fault_model, build_rul_model,
                                evaluate, gen_fault_dataset, gen_rul_dataset,
                                one_hot, read_dataset_csv, split_dataset,
                                write_dataset_csv)
from valvehealth.tinynn import (Activation, LayerSpec, Mlp, ModelKind, TrainConfig,
                                parameter_counts, serialize)
from valvehealth.waveform import DegradationState, FaultCondition, ValveParams


class TestArchitectures:
    def test_fault_model_parameter_counts(self):
        m = build_fault_model(seed=0)
        assert parameter_counts(m) == [108, 888, 300, 52]
        assert sum(parameter_counts(m)) == 1348

    def test_fault_model_shape_and_activations(self):
        m = build_fault_model(seed=0)
        assert [s.out_dim for s in m.layers] == [36, 24, 12, 4]
        assert [s.activation for s in m.layers] == [
            Activation.LEAKY_RELU, Activation.LEAKY_RELU,
            Activation.LEAKY_RELU, Activation.SOFTMAX]
        out = tinynn.infer(m, np.array([5.0, 100.0]))
        assert out.shape == (4,)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_rul_model_parameter_counts(self):
        m = build_rul_model(seed=0)
        assert parameter_counts(m) == [192, 1040, 68, 5]
        assert sum(parameter_counts(m)) == 1305

    def test_rul_model_shape_and_activations(self):
        m = build_rul_model(seed=0)
        assert [s.out_dim for s in m.layers] == [64, 16, 4, 1]
        assert [s.activation for s in m.layers] == [
            Activation.RELU, Activation.RELU, Activation.RELU, Activation.LINEAR]
        assert tinynn.infer(m, np.array([5.0, 100.0])).shape == (1,)

    def test_same_seed_identical_weights(self):
        a, b = build_fault_model(seed=7), build_fault_model(seed=7)
        assert serialize(a) == serialize(b)
        c = build_fault_model(seed=8)
        assert serialize(a) != serialize(c)

    def test_counts_survive_serialization(self):
        for build in (build_fault_model, build_rul_model):
            m = build(seed=0)
            m2 = tinynn.deserialize(serialize(m))
            assert parameter_counts(m2) == parameter_counts(m)


def toy_fault_dataset(n_per_class=40, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    centers = [(11.0, 211.0), (200.0, 226.0), (8.3, 219.0), (5.5, 107.0)]
    for label, (d, a) in enumerate(centers):
        for _ in range(n_per_class):
            xs.append((d + rng.normal(0, 0.2), a + rng.normal(0, 1.0)))
            ys.append(label)
    return Dataset(np.asarray(xs), np.asarray(ys), "fault")


class TestSplit:
    def test_sizes_for_1400_rows(self, fault_dataset):
        tr, va, te = split_dataset(fault_dataset, seed=0)
        assert (len(tr), len(va), len(te)) == (980, 280, 140)

    def test_disjoint_union(self, fault_dataset):
        tr, va, te = split_dataset(fault_dataset, seed=1)
        seen = sorted(map(tuple, np.concatenate([tr.x, va.x, te.x]).tolist()))
        assert seen == sorted(map(tuple, fault_dataset.x.tolist()))

    def test_stratified_within_one_row(self, fault_dataset):
        tr, va, te = split_dataset(fault_dataset, seed=2)
        total = np.bincount(fault_dataset.y, minlength=4)
        for part, frac in ((tr, 0.7), (va, 0.2), (te, 0.1)):
            got = np.bincount(part.y, minlength=4)
            assert np.all(np.abs(got - frac * total) <= 1.0)

    def test_deterministic_per_seed(self, fault_dataset):
        a = split_dataset(fault_dataset, seed=3)
        b = split_dataset(fault_dataset, seed=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.x, pb.x)
        c = split_dataset(fault_dataset, seed=4)
        assert not np.array_equal(a[0].x, c[0].x)

    def test_degenerate_fractions_rejected(self, fault_dataset):
        # one row per class: 70/20/10 puts every row in the training part
        with pytest.raises(ParameterError):
            split_dataset(fault_dataset.subset(np.array([0, 600, 800, 1000])), seed=0)
        rul = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([9.0, 8.0]), "rul")
        with pytest.raises(ParameterError):
            split_dataset(rul, seed=0)


class TestGenerators:
    def test_fault_default_counts(self, fault_dataset):
        assert len(fault_dataset) == 1400
        assert list(np.bincount(fault_dataset.y)) == [600, 200, 200, 400]

    def test_fault_custom_counts(self):
        ds = gen_fault_dataset(counts=(6, 2, 2, 4), seed=1)
        assert list(np.bincount(ds.y)) == [6, 2, 2, 4]

    def test_fault_zero_counts_rejected(self):
        with pytest.raises(ParameterError):
            gen_fault_dataset(counts=(0, 0, 0, 0), seed=0)

    def test_fault_deterministic(self):
        a = gen_fault_dataset(counts=(10, 5, 5, 8), seed=11)
        b = gen_fault_dataset(counts=(10, 5, 5, 8), seed=11)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_rul_row_arithmetic(self):
        ds = gen_rul_dataset(n_valves=1, seed=0, failure_cycle=1500)
        assert len(ds) == 300
        assert ds.y[0] == 1500.0
        assert ds.y[-1] == 5.0

    def test_rul_monotone_labels_within_valve(self, rul_dataset):
        per_valve = rul_dataset.y.reshape(4, 300)  # rows run valve by valve, 300 each
        for targets in per_valve:
            assert all(a > b for a, b in zip(targets, targets[1:]))

    def test_rul_bad_args(self):
        with pytest.raises(ParameterError):
            gen_rul_dataset(n_valves=0, seed=0)
        with pytest.raises(ParameterError):
            gen_rul_dataset(n_valves=1, seed=0, failure_cycle=4)


class TestDatasetOracle:
    """The batched generators against the per-row loop in tests/reference.py."""

    @pytest.mark.parametrize("seed, counts, noise, resampled", [
        (0, (6, 4, 4, 6), 1.0, False),
        (3, (30, 30, 30, 30), 60.0, True),  # the noise forces resampling
    ])
    def test_fault_rows_match_per_row_loop(self, seed, counts, noise, resampled):
        ds = gen_fault_dataset(counts=counts, seed=seed, noise_std=noise)
        x, y, n_resampled = reference_fault_dataset(counts, seed, noise)
        assert (n_resampled > 0) == resampled
        assert np.array_equal(ds.x, x)
        assert np.array_equal(ds.y, y)

    @pytest.mark.parametrize("seed, n_valves, failure_cycle, noise, resampled", [
        (0, 2, 1500, 0.5, False),
        (3, 1, 300, 60.0, True),
    ])
    def test_rul_rows_match_per_row_loop(self, seed, n_valves, failure_cycle, noise,
                                         resampled):
        ds = gen_rul_dataset(n_valves=n_valves, seed=seed, failure_cycle=failure_cycle,
                             noise_std=noise)
        x, y, n_resampled = reference_rul_dataset(n_valves, seed, failure_cycle, 5, noise)
        assert (n_resampled > 0) == resampled
        assert np.array_equal(ds.x, x)
        assert np.array_equal(ds.y, y)

    def test_retries_run_out_as_in_per_row_loop(self):
        # a 30 mA valve never clears the 40 mA edge threshold, whatever the seed
        weak = ValveParams(settling_current=30.0)
        fresh = DegradationState(cycle=0, failure_cycle=1)
        good = (ValveParams(), FaultCondition.good(), fresh)
        with pytest.raises(ExtractionError) as want:
            reference_synth_features(weak, FaultCondition.good(), fresh, 0.0, 11)
        with pytest.raises(ExtractionError) as got:
            models._synth_features([good, (weak, FaultCondition.good(), fresh)], 0.0, [4, 11])
        assert str(got.value) == str(want.value)
        assert str(got.value.__cause__) == str(want.value.__cause__)
        assert str(got.value.__cause__) == f"no usable edge with seed {11 + models._SYNTH_RETRIES - 1}"


class TestEvaluate:
    def test_perfect_classifier(self):
        # a crafted one-layer softmax model that separates the four corners
        # of the feature plane exactly plays the perfect-classifier stub
        corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        xs = np.tile(corners, (5, 1))
        ys = np.tile(np.arange(4), 5)
        ds = Dataset(xs, ys, "fault")
        w = 60.0 * corners  # logit c peaks exactly on corner c
        m = Mlp([LayerSpec(2, 4, Activation.SOFTMAX)], [w], [np.zeros(4)],
                np.zeros(2), np.ones(2), ModelKind.CLASSIFIER)
        report = evaluate(m, ds)
        assert report.accuracy == 1.0
        for c in range(4):
            assert report.confusion[c].argmax() == c
        assert np.allclose(report.confusion.sum(axis=1), 1.0, atol=1e-6)

    def test_uniform_classifier(self, fault_dataset):
        m = Mlp([LayerSpec(2, 4, Activation.SOFTMAX)], [np.zeros((4, 2))],
                [np.zeros(4)], np.zeros(2), np.ones(2), ModelKind.CLASSIFIER)
        report = evaluate(m, fault_dataset)
        # ties argmax to class 0, which is also the largest class share
        assert report.accuracy == pytest.approx(600 / 1400)
        assert np.allclose(report.confusion, 0.25, atol=1e-12)

    def test_regression_report(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([10.0, 20.0]), "rul")
        m = Mlp([LayerSpec(2, 1, Activation.LINEAR)], [np.zeros((1, 2))],
                [np.array([15.0])], np.zeros(2), np.ones(2),
                kind=ModelKind.REGRESSOR)
        report = evaluate(m, ds)
        assert report.mae_cycles == pytest.approx(5.0)

    def test_empty_rejected(self, fault_dataset):
        with pytest.raises(ParameterError):
            evaluate(build_fault_model(seed=0), fault_dataset.subset(np.array([], dtype=int)))


class TestTraining:
    def test_fault_training_quality(self, trained_fault):
        model, history, report = trained_fault
        assert report.accuracy >= 0.90
        assert report.confusion[0].argmax() == 0
        assert np.allclose(report.confusion.sum(axis=1), 1.0, atol=1e-6)
        assert len(history.train_loss) == 50
        assert history.train_loss[-1] < history.train_loss[0]

    def test_fault_training_deterministic(self, fault_dataset, trained_fault):
        cfg = TrainConfig(epochs=50, batch_size=10, seed=0)
        again_model, again_history, again_report = models.train_fault(fault_dataset, cfg)
        model, history, report = trained_fault
        assert serialize(again_model) == serialize(model)
        assert again_history.train_loss == history.train_loss
        assert again_report.accuracy == report.accuracy

    def test_rul_training_quality(self, rul_dataset, trained_rul):
        model, history, report = trained_rul
        assert report.mae_cycles <= 0.10 * rul_dataset.y.max()
        assert history.val_loss[-1] < history.val_loss[0]

    def test_rul_predicts_cycles_directly(self, trained_rul):
        # the target scale is folded into the final layer at save time
        model, _, _ = trained_rul
        fresh = tinynn.infer(model, np.array([11.0, 211.0]))[0]
        assert 1000.0 < fresh < 2000.0

    def test_kind_mismatch_rejected(self, fault_dataset, rul_dataset):
        with pytest.raises(ParameterError):
            models.train_fault(rul_dataset)
        with pytest.raises(ParameterError):
            models.train_rul(fault_dataset)

    def test_small_budget_toy_training(self):
        ds = toy_fault_dataset()
        cfg = TrainConfig(epochs=15, batch_size=10, seed=0)
        model, history, report = models.train_fault(ds, cfg)
        assert report.accuracy >= 0.75


class TestDatasetCsv:
    def test_fault_round_trip(self, tmp_path):
        ds = gen_fault_dataset(counts=(8, 4, 4, 6), seed=2)
        path = tmp_path / "fault.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert back.kind == "fault"
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    def test_rul_round_trip(self, tmp_path):
        ds = gen_rul_dataset(n_valves=1, seed=3, failure_cycle=100)
        path = tmp_path / "rul.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert back.kind == "rul"
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    def test_unknown_class_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("di_dt,auc,target\n1.0,2.0,good\n1.0,2.0,wobbly\n")
        with pytest.raises(CsvFormatError) as err:
            read_dataset_csv(path)
        assert err.value.line == 3

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CsvFormatError):
            read_dataset_csv(path)

    def test_one_hot(self):
        oh = one_hot(np.array([0, 3, 1]))
        assert oh.shape == (3, 4)
        assert list(oh.argmax(axis=1)) == [0, 3, 1]
        assert np.all(oh.sum(axis=1) == 1.0)
