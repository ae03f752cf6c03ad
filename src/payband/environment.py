"""Context streams, reward realization, and the dataset-to-bandit adapter.

Context sources come in three kinds: a fixed (optionally cycled) sequence,
i.i.d. Gaussian draws around a mean vector, and replay of a classification
dataset's feature rows. Every context handed to the interaction loop is
projected onto the unit ball first. For dataset replay the reward for pulling
arm i on a row labeled c is the indicator i == c, which turns a supervised
dataset into a bandit instance with one arm per class.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .linalg import min_eig_sym
from .model import ConfigError, unit_ball_projection


class ExhaustedSequenceError(RuntimeError):
    """A non-cycling fixed context sequence ran out of entries."""


class DatasetFormatError(ValueError):
    """A dataset CSV could not be parsed; the message pinpoints row/column."""


# ---------------------------------------------------------------------------
# Context source descriptors (declarative, JSON-friendly).
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
        object.__setattr__(self, "contexts", arr)

    @property
    def dim(self) -> int:
        return self.contexts[0].shape[0]


@dataclass(frozen=True)
class GaussianContextSpec:
    """I.i.d. draws from N(mean, std^2 I), projected to the unit ball."""

    mean: np.ndarray
    std: float

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float)
        if m.ndim != 1 or not np.all(np.isfinite(m)):
            raise ConfigError("mean", "vector of finite numbers", self.mean)
        if not math.isfinite(self.std) or self.std < 0:
            raise ConfigError("std", "finite number >= 0", self.std)
        object.__setattr__(self, "mean", m)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class DatasetReplaySpec:
    """Replay feature rows of a classification dataset, read once, as contexts."""

    dataset: BanditDataset
    sample_with_replacement: bool = False


ContextSourceSpec = Union[FixedSequenceSpec, GaussianContextSpec, DatasetReplaySpec]


# ---------------------------------------------------------------------------
# Runtime context streams. ``index`` below is zero-based: round t of the
# interaction loop reads index t - 1.
# ---------------------------------------------------------------------------

class FixedSequenceStream:
    def __init__(self, spec: FixedSequenceSpec) -> None:
        self.spec = spec

    def context_at(self, index: int, rng: np.random.Generator) -> np.ndarray:
        n = len(self.spec.contexts)
        if index >= n and not self.spec.cycle:
            raise ExhaustedSequenceError(
                f"fixed sequence of length {n} exhausted at index {index}"
            )
        return unit_ball_projection(self.spec.contexts[index % n])


class GaussianContextStream:
    def __init__(self, spec: GaussianContextSpec) -> None:
        self.spec = spec

    def context_at(self, index: int, rng: np.random.Generator) -> np.ndarray:
        raw = self.spec.mean + self.spec.std * rng.standard_normal(self.spec.dim)
        return unit_ball_projection(raw)


# ---------------------------------------------------------------------------
# Reward realization.
# ---------------------------------------------------------------------------

def realize_from_mean(true_mean: float, noise_std: float, rng: np.random.Generator) -> float:
    """Observed reward: true mean plus N(0, noise_std^2) noise.

    A draw is consumed even when noise_std is zero so that otherwise
    identical configurations stay stream-aligned.
    """
    return float(true_mean + noise_std * rng.standard_normal())


def realize_reward(true_attrs: np.ndarray, context: np.ndarray, chosen: int,
                   noise_std: float, rng: np.random.Generator) -> tuple[float, float]:
    """(observed, true mean) for the chosen arm under the linear reward model."""
    true_mean = float(np.asarray(true_attrs, float)[chosen] @ np.asarray(context, float))
    return realize_from_mean(true_mean, noise_std, rng), true_mean


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

    def class_histogram(self) -> list[int]:
        return [int(np.sum(self.labels == c)) for c in range(self.n_classes)]


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
    """Parse ``f_1,...,f_d,label`` rows into a BanditDataset.

    Errors carry 1-based row and column positions so a broken file can be
    fixed without guessing.
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    rows: list[list[float]] = []
    labels: list[int] = []
    width: Optional[int] = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
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
                if value is None or not math.isfinite(value):
                    raise DatasetFormatError(
                        f"row {lineno}, column {col}: {cell!r} is not a finite number"
                    )
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
    features = np.asarray(rows, dtype=float)
    if standardize:
        features = standardize_features(features)
    return BanditDataset(
        features=features,
        labels=np.asarray(labels, dtype=int),
        n_classes=n_classes,
        standardized=standardize,
    )


# ---------------------------------------------------------------------------
# Environments: what the interaction loop actually talks to.
# ---------------------------------------------------------------------------

class LinearEnvironment:
    """Linear reward model over a context stream."""

    def __init__(self, true_attrs: np.ndarray, stream, ctx_rng: np.random.Generator) -> None:
        self.true_attrs = np.asarray(true_attrs, dtype=float)
        self.n_arms = self.true_attrs.shape[0]
        self.dim = self.true_attrs.shape[1]
        self._stream = stream
        self._ctx_rng = ctx_rng

    def context(self, t: int) -> np.ndarray:
        return self._stream.context_at(t - 1, self._ctx_rng)

    def true_means(self, t: int, context: np.ndarray) -> np.ndarray:
        return self.true_attrs @ context


class DatasetEnvironment:
    """Replay a dataset: context = feature row, reward = 1{arm == label}.

    Rows arrive in a seed-dependent shuffled order; without replacement each
    row is visited at most once per pass through the dataset.
    """

    def __init__(self, dataset: BanditDataset, horizon: int,
                 rng: np.random.Generator, sample_with_replacement: bool = False) -> None:
        n = len(dataset)
        if horizon > n and not sample_with_replacement:
            raise ValueError(
                f"horizon {horizon} exceeds dataset size {n}; "
                "enable sample_with_replacement to allow this"
            )
        self.dataset = dataset
        self.n_arms = dataset.n_classes
        self.dim = dataset.dim
        if sample_with_replacement:
            self._order = rng.integers(0, n, size=horizon)
        else:
            self._order = rng.permutation(n)[:horizon]

    def row_index(self, t: int) -> int:
        return int(self._order[t - 1])

    def context(self, t: int) -> np.ndarray:
        return unit_ball_projection(self.dataset.features[self.row_index(t)])

    def true_means(self, t: int, context: np.ndarray) -> np.ndarray:
        means = np.zeros(self.n_arms)
        means[self.dataset.labels[self.row_index(t)]] = 1.0
        return means


def dataset_to_instance(dataset: BanditDataset, horizon: int, shuffle_seed: int,
                        sample_with_replacement: bool = False) -> DatasetEnvironment:
    """Bandit environment over a dataset with a seed-determined arrival order."""
    rng = np.random.default_rng(shuffle_seed)
    return DatasetEnvironment(dataset, horizon, rng, sample_with_replacement)


# ---------------------------------------------------------------------------
# Diagnostics.
# ---------------------------------------------------------------------------

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
