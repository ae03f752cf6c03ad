"""Context sources, reward realization, dataset ingestion, diagnostics."""

import csv
import hashlib
import io
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from payband import environment
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
    with pytest.raises(DatasetFormatError, match="^row 2, column 2: 'oops' is not a finite "
                                                 r"number of magnitude <= 1e\+100$"):
        load_dataset_csv(path, n_classes=2)


def test_non_finite_cell_error_names_row_and_column(tmp_path):
    for cell in ("nan", "inf", "-Infinity", "1e999"):
        path = write_csv(tmp_path, f"0.1,0.2,0\n0.3,{cell},1\n")
        with pytest.raises(DatasetFormatError, match=f"^row 2, column 2: '{cell}' is not a "
                                                     r"finite number of magnitude <= 1e\+100$"):
            load_dataset_csv(path, n_classes=2)


def test_ragged_row_error_names_row(tmp_path):
    path = write_csv(tmp_path, "0.1,0.2,0\n0.3,1\n")
    with pytest.raises(DatasetFormatError, match="^row 2: expected 3 columns, found 2$"):
        load_dataset_csv(path, n_classes=2)


def test_label_out_of_range_error_names_row(tmp_path):
    path = write_csv(tmp_path, "0.1,0.2,0\n0.3,0.4,5\n")
    with pytest.raises(DatasetFormatError, match=r"^row 2: label 5 outside \[0, 2\)$"):
        load_dataset_csv(path, n_classes=2)


# Each message as the per-row reader has always written it, for cells
# numpy's reader parses differently or not at all: it reads 0x1F as
# whitespace and "Ǿ" as the label 462, and older releases truncate a label
# such as "1.0" with only a DeprecationWarning, which the default filters of
# a `payband` run ignore.
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("text, has_header, message", [
    ("0.1,0.2,0\n#1,0.4,1\n", False,
     "row 2, column 1: '#1' is not a finite number of magnitude <= 1e+100"),
    ("0.1,0.2,0\n0.3,\x1f0.4,1\n", False,
     "row 2, column 2: '\\x1f0.4' is not a finite number of magnitude <= 1e+100"),
    ("0.1,0.2,0\n0.3,0.4,1.0\n", False, "row 2, column 3: label '1.0' is not an integer"),
    ("0.1,0.2,0\n0.3,0.4,0.5\n", False, "row 2, column 3: label '0.5' is not an integer"),
    ("0.1,0.2,0\n0.3,0.4,1e0\n", False, "row 2, column 3: label '1e0' is not an integer"),
    ("0.1,0.2,0\n0.3,0.4,-0.9\n", False, "row 2, column 3: label '-0.9' is not an integer"),
    ("0.1,0.2,0\n0.3,0.4,\n", False, "row 2, column 3: label '' is not an integer"),
    ("0.1,0.2,0\n0.3,0.4,1\x1f\n", False, "row 2, column 3: label '1\\x1f' is not an integer"),
    ("0.1,0.2,0\n0.3,0.4,Ǿ\n", False, "row 2, column 3: label 'Ǿ' is not an integer"),
    ("0.1,0.2,0\n0.3,0.4,12345678901234567890\n", False,
     "row 2: label 12345678901234567890 outside [0, 1000)"),
    ("0.1,0.2,0\n0.3,0.4,-1\n", False, "row 2: label -1 outside [0, 1000)"),
    ("0.1,0.2,0\n0.3,0.4,1,\n", False, "row 2: expected 3 columns, found 4"),
    ("0.1\n0.3\n", False, "row 1: need at least one feature and a label"),
    ("f_1,f_2,label\n", True, "dataset has no data rows"),
    ("", False, "dataset has no data rows"),
], ids=lambda v: repr(v) if isinstance(v, str) else None)
def test_dataset_error_message_names_its_row_and_column(tmp_path, text, has_header, message):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        load_dataset_csv(str(path), n_classes=1000, has_header=has_header)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_label_numpy_truncates_with_a_warning_goes_to_the_row_reader(tmp_path, monkeypatch):
    # Older numpy reads the label "1.0" as a float, truncates it to 1 and
    # only warns: the warning, not the value, must send the file on.
    def truncating_loadtxt(lines, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        table = np.zeros(len(list(lines)), dtype=dtype)
        table["label"] = 1
        return table

    monkeypatch.setattr(environment.np, "loadtxt", truncating_loadtxt)
    path = write_csv(tmp_path, "0.1,0.2,0\n0.3,0.4,1.0\n")
    with pytest.raises(DatasetFormatError,
                       match=r"^row 2, column 3: label '1\.0' is not an integer$"):
        load_dataset_csv(str(path), n_classes=3)


def reference_table(text, has_header):
    """The rows of a CSV text read cell by cell with csv, float() and int()."""
    rows = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    rows = [r for r in rows[has_header:] if r and not (len(r) == 1 and not r[0].strip())]
    return (np.array([[float(c) for c in r[:-1]] for r in rows]),
            np.array([int(r[-1]) for r in rows]))


def awkward_csv(only_rows):
    """A dataset text with a byte order mark, a header, CRLF endings, blank
    rows, spaces around cells, exponents, 17 significant digits, -0.0,
    subnormals and +1 labels. With ``only_rows`` it also holds what only the
    per-row reader reads: whitespace-only rows, quoted cells, ``1_0``, a
    vertical tab and no-break space around cells, a non-ASCII digit label."""
    rng = np.random.default_rng(40)
    special = ["-0.0", "5e-324", "-2.2250738585072014e-308", "1e100", "-1E-100", "1.5E+3",
               " 2.5 ", "\t7", ".5", "3.", "+0.25", "0.1000000000000000055511151231257827"]
    cells = special + [repr(float(v)) for v in rng.standard_normal(36)] + ["%.6f" % v for v in
                                                                    rng.standard_normal(12)]
    if only_rows:
        cells[-6:] = ['"0.5"', "1_0", "\v0.75", "\xa00.125\xa0", ' "-3e-7"', "2_000.5"]
    labels = ["0", "+1", " 1", "1 ", "00", "-0"] * 3
    if only_rows:
        labels[-2:] = ['"1"', "١"]
    lines = ["f_1,f_2,f_3,label"]
    for i, label in enumerate(labels):
        lines.append(",".join(cells[3 * i:3 * i + 3] + [label]))
        if i % 5 == 2:
            lines.append("   " if only_rows else "")
    return "\ufeff" + "\r\n".join(lines) + "\r\n\r\n"


@pytest.mark.parametrize("only_rows", [False, True], ids=["table", "rows"])
def test_awkward_file_loads_like_a_per_cell_parse(tmp_path, monkeypatch, only_rows):
    text = awkward_csv(only_rows)
    path = tmp_path / "awkward.csv"
    path.write_bytes(text.encode())
    want_features, want_labels = reference_table(text, has_header=True)
    table = environment._read_table(str(path), 2, has_header=True)
    assert (table is None) == only_rows  # which reader serves the file
    if not only_rows:
        monkeypatch.setattr(environment, "_read_rows", None)
    ds = load_dataset_csv(str(path), n_classes=2, has_header=True)
    assert ds.features.shape == want_features.shape == (18, 3)
    assert np.ascontiguousarray(ds.features).tobytes() == want_features.tobytes()
    assert (ds.labels.dtype, ds.labels.tolist()) == (want_labels.dtype, want_labels.tolist())
    # -0.0 and the subnormal keep their bits.
    assert np.signbit(ds.features[0, 0]) and ds.features[0, 1] == 5e-324


@pytest.mark.parametrize("standardize, features_sha256", [
    (False, "c4194bebb5198ca04df6ef11b521966b8de79b59b623b2d4da208932141a46be"),
    (True, "5212063b45b970bedbdbe01a71e96fff550dae35f914b5090e65ae4bdd8ca555"),
])
def test_bundled_dataset_keeps_its_bits(standardize, features_sha256):
    path = Path(environment.__file__).parent / "presets" / "fig2_synth.csv"
    ds = load_dataset_csv(str(path), n_classes=2, standardize=standardize, has_header=True)
    assert ds.features.shape == (2520, 14)
    assert hashlib.sha256(np.ascontiguousarray(ds.features).tobytes()).hexdigest() == \
        features_sha256
    assert hashlib.sha256(ds.labels.astype("<i8").tobytes()).hexdigest() == \
        "7684bf0b623cae63a56223fc0f28e154de5477b692495da6d235f12781e74b39"


def test_loading_holds_little_more_than_the_feature_array(tmp_path):
    rng = np.random.default_rng(41)
    table = np.column_stack([rng.standard_normal((20_000, 20)), rng.integers(0, 3, 20_000)])
    path = tmp_path / "wide.csv"
    np.savetxt(path, table, fmt=["%.6f"] * 20 + ["%d"], delimiter=",")
    tracemalloc.start()
    try:
        ds = load_dataset_csv(str(path), n_classes=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (20_000, 20) and np.array_equal(ds.labels, table[:, 20])
    assert peak <= 2 * ds.features.nbytes


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
