"""Context sources, dataset loading, and the environments a run plays in.

A fixed-sequence or Gaussian spec draws a run's contexts itself (``draw``);
dataset replay shuffles a dataset's rows, and pulling arm i on a row labeled
c rewards 1{i == c}. Every context is projected onto the unit ball.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimation import min_eig_sym
from .model import MAX_MAGNITUDE, ConfigError, unit_ball_rows


class ExhaustedSequenceError(RuntimeError):
    """A non-cycling fixed context sequence ran out of entries."""


class DatasetFormatError(ValueError):
    """A dataset CSV could not be parsed; the message pinpoints row/column."""


# ---------------------------------------------------------------------------
# Context source descriptors (declarative, JSON-friendly). ``draw(n, rng)``
# returns the contexts of rounds 1..n as an (n, dim) array, each row
# projected onto the unit ball.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedSequenceSpec:
    """Adversary-supplied context list; ``cycle`` repeats it past the end."""

    contexts: tuple
    cycle: bool = False

    def __post_init__(self) -> None:
        arr = tuple(np.asarray(c, dtype=float) for c in self.contexts)
        if not arr:
            raise ConfigError("contexts", "nonempty list of vectors", [])
        dim = arr[0].shape[0]
        for i, c in enumerate(arr):
            if c.shape != (dim,):
                raise ConfigError(f"contexts[{i}]", f"vector of length {dim}, like contexts[0]",
                                  c.shape)
            if not np.all(np.abs(c) <= MAX_MAGNITUDE):
                raise ConfigError(f"contexts[{i}]",
                                  f"vector of numbers of magnitude <= {MAX_MAGNITUDE:g}",
                                  c.tolist())
        object.__setattr__(self, "contexts", arr)

    @property
    def dim(self) -> int:
        return self.contexts[0].shape[0]

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        contexts = self.contexts
        if n > len(contexts) and not self.cycle:
            raise ExhaustedSequenceError(
                f"fixed sequence of length {len(contexts)} exhausted at index {len(contexts)}"
            )
        return unit_ball_rows(np.array(contexts)[np.arange(n) % len(contexts)])


@dataclass(frozen=True)
class GaussianContextSpec:
    """I.i.d. draws from N(mean, std^2 I), projected to the unit ball."""

    mean: np.ndarray
    std: float

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float)
        if m.ndim != 1 or not np.all(np.abs(m) <= MAX_MAGNITUDE):
            raise ConfigError("mean", f"vector of numbers of magnitude <= {MAX_MAGNITUDE:g}",
                              self.mean)
        object.__setattr__(self, "std", float(self.std))
        if not 0 <= self.std <= MAX_MAGNITUDE:
            raise ConfigError("std", f"number in [0, {MAX_MAGNITUDE:g}]", self.std)
        object.__setattr__(self, "mean", m)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # One (n, dim) draw holds the bits of n successive (dim,) draws.
        return unit_ball_rows(self.mean + self.std * rng.standard_normal((n, self.dim)))


@dataclass(frozen=True)
class DatasetReplaySpec:
    """Replay feature rows of a classification dataset, read once, as contexts."""

    dataset: BanditDataset
    sample_with_replacement: bool = False


def realize_from_mean(true_mean: float, noise_std: float, rng: np.random.Generator) -> float:
    """Observed reward: true mean plus N(0, noise_std^2) noise.

    A draw is consumed even when noise_std is zero so that otherwise
    identical configurations stay stream-aligned.
    """
    return float(true_mean + noise_std * rng.standard_normal())


# ---------------------------------------------------------------------------
# Datasets.
# ---------------------------------------------------------------------------

@dataclass
class BanditDataset:
    """Feature matrix plus integer class labels (one arm per class)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    standardized: bool = False

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]


def standardize_features(features: np.ndarray) -> np.ndarray:
    """Column-wise z-score. Constant columns become all zeros."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    safe = np.where(std < 1e-12, 1.0, std)
    out = (features - mean) / safe
    out[:, std < 1e-12] = 0.0
    return out


def load_dataset_csv(path: str, n_classes: int, standardize: bool = False,
                     has_header: bool = False) -> BanditDataset:
    """Parse the ``f_1,...,f_d,label`` rows of a UTF-8 CSV file into a BanditDataset.

    A leading byte order mark, blank rows and, with ``has_header``, the first
    row are skipped. numpy's C reader (``_read_table``) reads the file in one
    pass; a file it declines or that fails a cell check goes to ``_read_rows``,
    which raises DatasetFormatError at the row and column of the first bad
    cell or, finding none, gives the same bits (README "Config format").
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    table = _read_table(path, n_classes, has_header)
    features, labels = table if table is not None else _read_rows(path, n_classes, has_header)
    if standardize:
        features = standardize_features(features)
    return BanditDataset(features=features, labels=labels, n_classes=n_classes,
                         standardized=standardize)


# Bytes a data row may hold for ``_read_table``: printable ASCII but the quote,
# tab, CR and LF. numpy reads more than float() and int() do (0x1C-0x1F as
# whitespace, non-ASCII label digits), and ``str.splitlines`` splits at more.
_TABLE_BYTES = bytes(b for b in range(0x20, 0x7F) if b != ord('"')) + b"\t\r\n"
_BLOCK = 1 << 16


def _read_table(path: str, n_classes: int,
                has_header: bool) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(features, labels) read by ``np.loadtxt`` in one pass over the file in
    64 KiB blocks checked against ``_TABLE_BYTES``, or None where ``_read_rows``
    must decide. ``features`` is a view of the table numpy grows."""
    with open(path, "rb") as fh, warnings.catch_warnings():
        # Older numpy parses a label such as "1.0" as a float, truncates it
        # and only warns; as an error the warning sends the file to
        # ``_read_rows``, which rejects that label.
        warnings.simplefilter("error", DeprecationWarning)
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        lines = itertools.chain.from_iterable(_checked_blocks(fh))
        try:
            if has_header:
                next(lines, None)
            first = next(line for line in lines if line.strip("\r\n"))
            width = first.count(",") + 1
            if width < 2:
                return None
            dtype = np.dtype([("features", float, (width - 1,)), ("label", int)])
            table = np.loadtxt(itertools.chain((first,), lines), dtype=dtype,
                               delimiter=",", comments=None, ndmin=1)
        # No data row, a line numpy rejects, or a label it would truncate.
        except (StopIteration, ValueError, DeprecationWarning):
            return None
    features, labels = table["features"], table["label"]
    # Reductions, not elementwise tests, so no temporary of the table's size.
    if not (-MAX_MAGNITUDE <= features.min() and features.max() <= MAX_MAGNITUDE  # NaN fails
            and 0 <= labels.min() and labels.max() < n_classes):
        return None
    return features, labels.copy()


def _checked_blocks(fh):
    """The file's remaining lines, one list per block of whole lines; raises
    ValueError at the first block holding a byte outside ``_TABLE_BYTES`` or
    longer than csv's field limit (a block only grows past ``_BLOCK`` by a
    line, and a cell that long makes csv raise)."""
    while block := fh.read(_BLOCK) + fh.readline():
        if block.translate(None, _TABLE_BYTES) or len(block) > csv.field_size_limit():
            raise ValueError("block the table reader declines")
        yield block.decode("ascii").splitlines(keepends=True)


def _records(fh):
    """csv's records of ``fh``; a csv error, such as a cell longer than csv's
    field limit, raises DatasetFormatError naming the row."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetFormatError(f"row {reader.line_num}: {exc}") from None


def _read_rows(path: str, n_classes: int, has_header: bool) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) parsed cell by cell with ``csv``, ``float()`` and
    ``int()``; raises DatasetFormatError at the first bad row."""
    rows: list[list[float]] = []
    labels: list[int] = []
    width: Optional[int] = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, cells in enumerate(_records(fh), start=1):
            if lineno == 1 and has_header:
                continue
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue  # skip blank lines
            if width is None:
                width = len(cells)
                if width < 2:
                    raise DatasetFormatError(
                        f"row {lineno}: need at least one feature and a label"
                    )
            elif len(cells) != width:
                raise DatasetFormatError(
                    f"row {lineno}: expected {width} columns, found {len(cells)}"
                )
            feats = []
            for col, cell in enumerate(cells[:-1], start=1):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or not abs(value) <= MAX_MAGNITUDE:  # NaN fails too
                    raise DatasetFormatError(f"row {lineno}, column {col}: {cell!r} is not a "
                                             f"finite number of magnitude <= {MAX_MAGNITUDE:g}")
                feats.append(value)
            try:
                label = int(cells[-1])
            except ValueError:
                raise DatasetFormatError(
                    f"row {lineno}, column {width}: label {cells[-1]!r} is not an integer"
                ) from None
            if not (0 <= label < n_classes):
                raise DatasetFormatError(
                    f"row {lineno}: label {label} outside [0, {n_classes})"
                )
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise DatasetFormatError("dataset has no data rows")
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=int)


# ---------------------------------------------------------------------------
# Environments: what the interaction loop actually talks to.
# ---------------------------------------------------------------------------

class LinearEnvironment:
    """Linear reward model over contexts drawn by a fixed-sequence or Gaussian
    source spec. ``contexts`` (horizon, dim) and ``means`` (horizon, n_arms),
    row t - 1 for round t, are drawn at construction; each row of ``means``
    has the bits of ``true_attrs @ context``."""

    def __init__(self, true_attrs: np.ndarray, source, horizon: int,
                 rng: np.random.Generator) -> None:
        self.true_attrs = np.asarray(true_attrs, dtype=float)
        self.n_arms, self.dim = self.true_attrs.shape
        self.contexts = source.draw(horizon, rng)
        self.means = (self.true_attrs @ self.contexts[:, :, None])[:, :, 0]

    def context(self, t: int) -> np.ndarray:
        return self.contexts[t - 1]

    def true_means(self, t: int) -> np.ndarray:
        return self.means[t - 1]


class DatasetEnvironment:
    """Replay a dataset: context = feature row, reward = 1{arm == label}.

    ``order`` (horizon,) holds the rows' seeded shuffled order, each row at
    most once without replacement; ``contexts`` (unit-ball projected) and the
    one-hot ``means`` hold the whole run, as in ``LinearEnvironment``.
    """

    def __init__(self, dataset: BanditDataset, horizon: int,
                 rng: np.random.Generator, sample_with_replacement: bool = False) -> None:
        n = len(dataset)
        if horizon > n and not sample_with_replacement:
            raise ValueError(
                f"horizon {horizon} exceeds dataset size {n}; "
                "enable sample_with_replacement to allow this"
            )
        self.n_arms = dataset.n_classes
        self.dim = dataset.dim
        if sample_with_replacement:
            self.order = rng.integers(0, n, size=horizon)
        else:
            self.order = rng.permutation(n)[:horizon]
        self.contexts = unit_ball_rows(dataset.features[self.order])
        self.means = np.zeros((horizon, self.n_arms))
        self.means[np.arange(horizon), dataset.labels[self.order]] = 1.0

    def context(self, t: int) -> np.ndarray:
        return self.contexts[t - 1]

    def true_means(self, t: int) -> np.ndarray:
        return self.means[t - 1]


def covariate_diversity_report(contexts) -> float:
    """Smallest eigenvalue of the empirical second-moment matrix (1/n) sum x x^T.

    Callers choose what to pass: raw perturbed vectors measure the diversity
    the payment perturbations induce before any unit-ball projection.
    """
    stack = np.asarray(list(contexts), dtype=float)
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ValueError("need a nonempty list of equal-length context vectors")
    second_moment = stack.T @ stack / stack.shape[0]
    return min_eig_sym(second_moment)
