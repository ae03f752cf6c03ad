"""Context sources, reward realization, dataset ingestion, diagnostics."""

import numpy as np
import pytest

from payband.environment import (
    DatasetEnvironment,
    DatasetFormatError,
    ExhaustedSequenceError,
    FixedSequenceSpec,
    GaussianContextSpec,
    LinearEnvironment,
    covariate_diversity_report,
    load_dataset_csv,
    realize_from_mean,
    standardize_features,
)


def rng_for(seed=0):
    return np.random.default_rng(seed)


def test_fixed_sequence_indexing_is_zero_based():
    spec = FixedSequenceSpec(contexts=(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    contexts = spec.draw(2, rng_for())
    assert np.array_equal(contexts[0], [1.0, 0.0])
    assert np.array_equal(contexts[1], [0.0, 1.0])


def test_fixed_sequence_exhaustion_and_cycling():
    contexts = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    plain = FixedSequenceSpec(contexts=contexts)
    assert plain.draw(2, rng_for()).shape == (2, 2)
    with pytest.raises(ExhaustedSequenceError):
        plain.draw(3, rng_for())
    cyc = FixedSequenceSpec(contexts=contexts, cycle=True).draw(8, rng_for())
    assert np.array_equal(cyc[2], [1.0, 0.0])
    assert np.array_equal(cyc[7], [0.0, 1.0])


def test_fixed_sequence_projects_oversized_contexts():
    spec = FixedSequenceSpec(contexts=(np.array([3.0, 4.0]),))
    ctx = spec.draw(1, rng_for())[0]
    assert np.linalg.norm(ctx) == pytest.approx(1.0)


def test_fixed_sequence_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        FixedSequenceSpec(contexts=(np.array([1.0]), np.array([1.0, 0.0])))


def test_gaussian_spec_rejects_non_finite_numbers():
    with pytest.raises(ValueError, match="std"):
        GaussianContextSpec(mean=np.zeros(2), std=float("nan"))
    with pytest.raises(ValueError, match="mean"):
        GaussianContextSpec(mean=np.array([0.0, float("inf")]), std=1.0)


def test_gaussian_contexts_stay_in_unit_ball_and_are_seeded():
    spec = GaussianContextSpec(mean=np.array([0.5, 0.5, 0.5]), std=2.0)
    gen = rng_for(42)
    a = spec.draw(50, gen)
    for x in a:
        assert np.linalg.norm(x) <= 1.0 + 1e-12
    assert not np.array_equal(a[0], a[1])
    # a generator from the same seed replays the same draws
    assert np.array_equal(spec.draw(50, rng_for(42)), a)
    # one draw of 50 rows holds the bits of 50 draws of one row
    gen3 = rng_for(42)
    assert np.array_equal(np.vstack([spec.draw(1, gen3) for _ in range(50)]), a)


def test_noiseless_realization_returns_mean_but_advances_stream():
    rng = rng_for(5)
    before = rng.bit_generator.state["state"]["state"]
    val = realize_from_mean(0.37, 0.0, rng)
    after = rng.bit_generator.state["state"]["state"]
    assert val == 0.37
    assert before != after


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_toy_csv_parses(tmp_path):
    path = write_csv(tmp_path, "0.1,0.2,0\n0.3,0.4,1\n-0.5,0.6,0\n")
    ds = load_dataset_csv(path, n_classes=2)
    assert len(ds) == 3
    assert ds.dim == 2
    assert ds.labels.tolist() == [0, 1, 0]
    assert np.allclose(ds.features[1], [0.3, 0.4])


def test_header_row_skipped_when_flagged(tmp_path):
    path = write_csv(tmp_path, "f_1,f_2,label\n0.1,0.2,0\n0.3,0.4,1\n")
    ds = load_dataset_csv(path, n_classes=2, has_header=True)
    assert len(ds) == 2
    with pytest.raises(DatasetFormatError, match="row 1, column 1"):
        load_dataset_csv(path, n_classes=2, has_header=False)


def test_blank_lines_are_skipped(tmp_path):
    path = write_csv(tmp_path, "0.1,0.2,0\n\n0.3,0.4,1\n\n")
    assert len(load_dataset_csv(path, n_classes=2)) == 2


def test_bad_number_error_names_row_and_column(tmp_path):
    path = write_csv(tmp_path, "0.1,0.2,0\n0.3,oops,1\n")
    with pytest.raises(DatasetFormatError, match="row 2, column 2"):
        load_dataset_csv(path, n_classes=2)


def test_non_finite_cell_error_names_row_and_column(tmp_path):
    for cell in ("nan", "inf", "-Infinity"):
        path = write_csv(tmp_path, f"0.1,0.2,0\n0.3,{cell},1\n")
        with pytest.raises(DatasetFormatError, match="row 2, column 2.*finite"):
            load_dataset_csv(path, n_classes=2)


def test_ragged_row_error_names_row(tmp_path):
    path = write_csv(tmp_path, "0.1,0.2,0\n0.3,1\n")
    with pytest.raises(DatasetFormatError, match="row 2"):
        load_dataset_csv(path, n_classes=2)


def test_label_out_of_range_error_names_row(tmp_path):
    path = write_csv(tmp_path, "0.1,0.2,0\n0.3,0.4,5\n")
    with pytest.raises(DatasetFormatError, match="row 2.*label 5"):
        load_dataset_csv(path, n_classes=2)


def test_standardization_centers_and_scales(tmp_path):
    rows = ["%f,%f,7.5,%d" % (i * 0.5, -i, i % 2) for i in range(12)]
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    ds = load_dataset_csv(path, n_classes=2, standardize=True)
    means = ds.features.mean(axis=0)
    stds = ds.features.std(axis=0)
    assert np.all(np.abs(means) <= 1e-6)
    assert np.allclose(stds[:2], 1.0)
    # constant column carries no information and becomes identically zero
    assert np.all(ds.features[:, 2] == 0.0)
    assert ds.standardized


def test_standardize_features_direct():
    f = np.array([[1.0, 4.0], [3.0, 4.0], [5.0, 4.0]])
    z = standardize_features(f)
    assert np.allclose(z[:, 0].mean(), 0.0)
    assert np.allclose(z[:, 0].std(), 1.0)
    assert np.all(z[:, 1] == 0.0)


def test_dataset_environment_replays_rows_without_replacement(tmp_path):
    path = write_csv(tmp_path, "\n".join("%d.0,%d.5,%d" % (i, i, i % 2) for i in range(6)))
    ds = load_dataset_csv(path, n_classes=2)
    env = DatasetEnvironment(ds, horizon=6, rng=rng_for(1))
    seen = env.order.tolist()
    assert sorted(seen) == list(range(6))
    # same seed, same order; contexts are the rows, unit-ball projected
    env2 = DatasetEnvironment(ds, horizon=6, rng=rng_for(1))
    assert seen == env2.order.tolist()
    for t in range(1, 7):
        assert np.linalg.norm(env.context(t)) <= 1.0 + 1e-12


def test_dataset_environment_one_hot_true_means(tmp_path):
    path = write_csv(tmp_path, "1.0,0.0,1\n0.0,1.0,0\n")
    ds = load_dataset_csv(path, n_classes=2)
    env = DatasetEnvironment(ds, horizon=2, rng=rng_for(0))
    for t in (1, 2):
        means = env.true_means(t)
        label = ds.labels[env.order[t - 1]]
        assert means[label] == 1.0 and means.sum() == 1.0


def test_horizon_beyond_rows_requires_replacement(tmp_path):
    path = write_csv(tmp_path, "1.0,0.0,1\n0.0,1.0,0\n")
    ds = load_dataset_csv(path, n_classes=2)
    with pytest.raises(ValueError, match="replacement"):
        DatasetEnvironment(ds, horizon=5, rng=rng_for(0))
    env = DatasetEnvironment(ds, horizon=5, rng=rng_for(0), sample_with_replacement=True)
    assert env.order.shape == (5,) and set(env.order.tolist()) <= {0, 1}


def test_dataset_to_instance_uses_shuffle_seed(tmp_path):
    path = write_csv(tmp_path, "\n".join("%d.0,%d.5,%d" % (i, i, i % 2) for i in range(8)))
    ds = load_dataset_csv(path, n_classes=2)
    a = DatasetEnvironment(ds, horizon=8, rng=rng_for(3))
    b = DatasetEnvironment(ds, horizon=8, rng=rng_for(3))
    c = DatasetEnvironment(ds, horizon=8, rng=rng_for(4))
    assert np.array_equal(a.order, b.order)
    assert not np.array_equal(a.order, c.order)


def test_linear_environment_round_indexing():
    attrs = np.array([[0.5, 0.0], [0.0, 0.5]])
    spec = FixedSequenceSpec(contexts=(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    env = LinearEnvironment(attrs, spec, 2, rng_for())
    assert np.array_equal(env.context(1), [1.0, 0.0])
    assert np.array_equal(env.context(2), [0.0, 1.0])
    assert np.allclose(env.true_means(1), [0.5, 0.0])
    assert np.allclose(env.true_means(2), [0.0, 0.5])
    assert env.contexts.shape == (2, 2) and env.means.shape == (2, 2)


def test_diversity_of_standard_basis_is_half():
    ctxs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert covariate_diversity_report(ctxs) == pytest.approx(0.5)


def test_diversity_of_repeated_direction_is_zero():
    ctxs = [np.array([0.6, 0.8])] * 10
    assert covariate_diversity_report(ctxs) == pytest.approx(0.0, abs=1e-12)


def test_diversity_rejects_empty():
    with pytest.raises(ValueError):
        covariate_diversity_report([])
