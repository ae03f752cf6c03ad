"""Context sources, dataset loading, and the environments a run plays in.

Context sources come in three kinds: a fixed (optionally cycled) sequence,
i.i.d. Gaussian draws around a mean vector, and replay of a classification
dataset's feature rows. The first two are specs that draw a run's contexts
themselves (``draw``) for a linear reward model; dataset replay shuffles the
rows instead. Every context handed to the interaction loop is projected onto
the unit ball first. For dataset replay the reward for pulling arm i on a row
labeled c is the indicator i == c, which turns a supervised dataset into a
bandit instance with one arm per class.
"""

from __future__ import annotations

import csv
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


# ---------------------------------------------------------------------------
# Reward realization.
# ---------------------------------------------------------------------------

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

    A leading byte order mark is skipped. Feature cells must be finite and
    of magnitude at most ``model.MAX_MAGNITUDE``. Errors carry 1-based row
    and column positions so a broken file can be fixed without guessing.
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    rows: list[list[float]] = []
    labels: list[int] = []
    width: Optional[int] = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    """Linear reward model over contexts drawn by a fixed-sequence or
    Gaussian source spec.

    The whole run's contexts are drawn at construction: ``contexts`` is
    (horizon, dim) and ``means`` the (horizon, n_arms) true mean rewards, row
    t - 1 for round t. Each row of ``means`` comes from a stacked
    (n_arms, dim) @ (dim, 1) product, which has the bits of
    ``true_attrs @ context``.
    """

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

    Rows arrive in a seed-dependent shuffled order, ``order`` (horizon,) of
    dataset row indices; without replacement each row is visited at most
    once per pass through the dataset. Like ``LinearEnvironment`` it holds
    the whole run's ``contexts`` (the rows, unit-ball projected) and one-hot
    ``means``.
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
