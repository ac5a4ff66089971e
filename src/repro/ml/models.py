"""Surrogate regressors over campaign datasets (numpy/scipy only).

Two implementations of one :class:`Surrogate` protocol, both trained on a
:class:`~repro.ml.dataset.Dataset` and both returning a predictive
*mean and standard deviation* per target -- the std is what makes
uncertainty-gated serving and active learning possible:

``"gp"`` -- :class:`GaussianProcessSurrogate`
    An exact Gaussian-process regressor: RBF kernel with per-dimension
    (ARD) lengthscales on standardized inputs, Cholesky fit with jitter
    backoff, small log-marginal-likelihood grid search over lengthscale
    and noise scalings.  Exact and well-calibrated; O(n^3) fit, so best
    below a few thousand samples.

``"rff"`` -- :class:`RandomFeatureSurrogate`
    Bayesian ridge regression on random Fourier features (a Monte-Carlo
    approximation of the same RBF kernel; Rahimi & Recht 2007).  Fit cost
    is O(n·D^2) for D features, so it scales to large stores; the
    posterior-weight covariance still yields a usable predictive std.

Both targets-share-one-kernel: ``y`` may hold several metric columns
(peak temperature, pressure drop, ...) and the fit solves all of them
against the same Gram matrix.  Both are plain-attribute classes, so they
pickle; :func:`save_model` / :func:`load_model` store them in a
content-addressed model directory (``<dir>/<digest>/model.pkl`` plus a
human-readable ``meta.json``) where the digest commits to the exact
pickle bytes -- refitting on new data yields a new id, never a silent
overwrite.  Every file is written with :func:`repro.durable.atomic_write`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np
import scipy.linalg

from ..durable import atomic_write
from ..scenarios import ScenarioSpec
from .dataset import Dataset
from .features import FeatureSchema

__all__ = [
    "SURROGATES",
    "GaussianProcessSurrogate",
    "RandomFeatureSurrogate",
    "Surrogate",
    "list_models",
    "load_model",
    "make_surrogate",
    "save_model",
]


@runtime_checkable
class Surrogate(Protocol):
    """Anything that regresses spec features to metric means + stds."""

    name: str

    def fit(self, dataset: Dataset) -> "Surrogate":  # pragma: no cover
        """Train on a dataset; returns self for chaining."""
        ...

    def predict(
        self, X: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        """Predictive ``(mean, std)`` per row/target, shape ``(n, n_targets)``."""
        ...


class _FittedBase:
    """Shared plumbing: input standardization, target scaling, spec encoding."""

    name = "base"

    def __init__(self) -> None:
        self.schema: Optional[FeatureSchema] = None
        self.targets: Tuple[str, ...] = ()
        self.n_samples = 0
        self._x_mean: Optional[np.ndarray] = None
        self._x_scale: Optional[np.ndarray] = None
        self._y_mean: Optional[np.ndarray] = None
        self._y_scale: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._x_mean is not None

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise ValueError(
                f"{type(self).__name__} is not fitted; call fit(dataset) first"
            )

    def _standardize_fit(self, dataset: Dataset) -> Tuple[np.ndarray, np.ndarray]:
        X = np.asarray(dataset.X, dtype=float)
        y = np.asarray(dataset.y, dtype=float)
        if X.ndim != 2 or y.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(
                f"dataset shapes are inconsistent: X {X.shape}, y {y.shape}"
            )
        if X.shape[0] < 2:
            raise ValueError(
                f"cannot fit a surrogate on {X.shape[0]} sample(s); run a "
                "campaign first (2+ distinct ok records required)"
            )
        self.schema = dataset.schema
        self.targets = tuple(dataset.targets)
        self.n_samples = int(X.shape[0])
        self._x_mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0  # constant columns pass through unscaled
        self._x_scale = scale
        self._y_mean = y.mean(axis=0)
        y_scale = y.std(axis=0)
        y_scale[y_scale == 0.0] = 1.0
        self._y_scale = y_scale
        return (X - self._x_mean) / self._x_scale, (y - self._y_mean) / y_scale

    def _standardize_x(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self._x_mean.shape[0]:
            raise ValueError(
                f"query has {X.shape[1]} feature column(s); the model was "
                f"fitted on {self._x_mean.shape[0]}"
            )
        return (X - self._x_mean) / self._x_scale

    def encode(
        self, specs: Iterable[Union[ScenarioSpec, Mapping]]
    ) -> np.ndarray:
        """Encode specs with the schema the model was trained on."""
        self._check_fitted()
        return self.schema.matrix(specs)

    def predict_specs(
        self, specs: Iterable[Union[ScenarioSpec, Mapping]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predict straight from specs (encode + :meth:`predict`)."""
        return self.predict(self.encode(specs))

    def describe(self) -> Dict[str, object]:
        """Plain-data summary used for model metadata and healthz."""
        self._check_fitted()
        return {
            "model": self.name,
            "targets": list(self.targets),
            "n_samples": self.n_samples,
            "n_features": int(self._x_mean.shape[0]),
            "feature_columns": self.schema.column_names(),
            "schema": self.schema.to_dict(),
        }


def _cholesky_with_jitter(
    K: np.ndarray, jitter: float = 1e-10, max_tries: int = 8
) -> Tuple[np.ndarray, float]:
    """Lower Cholesky of a kernel matrix, escalating jitter on failure.

    Near-duplicate rows make campaign Gram matrices numerically
    semi-definite; rather than failing the fit, the diagonal is inflated
    by growing jitter (x10 per retry) until the factorization succeeds.
    Returns the factor and the jitter that worked.
    """
    current = jitter
    for _ in range(max_tries):
        try:
            L = scipy.linalg.cholesky(
                K + current * np.eye(K.shape[0]), lower=True
            )
            return L, current
        except scipy.linalg.LinAlgError:
            current *= 10.0
    raise ValueError(
        f"kernel matrix is not positive definite even with jitter {current:g}; "
        "the training data likely contains exactly duplicated rows with "
        "conflicting targets"
    )


class GaussianProcessSurrogate(_FittedBase):
    """Exact GP regression with an ARD RBF kernel (see module docstring).

    Parameters
    ----------
    lengthscale:
        Base per-dimension lengthscale in standardized-input units.
    noise:
        Base observation-noise variance (standardized-target units).
    optimize:
        Grid-search lengthscale/noise scalings by log marginal
        likelihood (default on; cheap -- a handful of Cholesky solves).
    """

    name = "gp"

    def __init__(
        self,
        lengthscale: float = 1.0,
        noise: float = 1e-6,
        optimize: bool = True,
    ) -> None:
        super().__init__()
        if lengthscale <= 0:
            raise ValueError(f"lengthscale must be > 0, got {lengthscale}")
        if noise < 0:
            raise ValueError(f"noise must be >= 0, got {noise}")
        self.lengthscale = float(lengthscale)
        self.noise = float(noise)
        self.optimize = bool(optimize)
        self._X: Optional[np.ndarray] = None
        self._L: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._lengthscales: Optional[np.ndarray] = None
        self._noise: float = noise
        self._jitter: float = 0.0
        self._calibration: Optional[np.ndarray] = None

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """ARD RBF: exp(-0.5 * sum_d ((a_d - b_d) / l_d)^2)."""
        scaled_a = A / self._lengthscales
        scaled_b = B / self._lengthscales
        sq = (
            (scaled_a**2).sum(axis=1)[:, None]
            + (scaled_b**2).sum(axis=1)[None, :]
            - 2.0 * scaled_a @ scaled_b.T
        )
        return np.exp(-0.5 * np.maximum(sq, 0.0))

    def _log_marginal(
        self, X: np.ndarray, Y: np.ndarray, noise: float
    ) -> float:
        """Summed log marginal likelihood over the target columns."""
        K = self._kernel(X, X) + noise * np.eye(X.shape[0])
        try:
            L, _ = _cholesky_with_jitter(K)
        except ValueError:
            return -np.inf
        alpha = scipy.linalg.cho_solve((L, True), Y)
        n = X.shape[0]
        log_det = 2.0 * np.log(np.diag(L)).sum()
        total = 0.0
        for t in range(Y.shape[1]):
            total += (
                -0.5 * float(Y[:, t] @ alpha[:, t])
                - 0.5 * log_det
                - 0.5 * n * np.log(2.0 * np.pi)
            )
        return total

    def fit(self, dataset: Dataset) -> "GaussianProcessSurrogate":
        """Cholesky-fit the GP (with an optional hyperparameter grid)."""
        X, Y = self._standardize_fit(dataset)
        base = np.full(X.shape[1], self.lengthscale)
        best = (self.lengthscale, max(self.noise, 1e-8))
        if self.optimize:
            best_score = -np.inf
            # The training data is deterministic solver output, so true
            # observation noise is ~0; the noise grid stays tiny and acts
            # as a regularizer, not an error model.  The lengthscale grid
            # caps at 2x standardized spread: beyond that the marginal
            # likelihood happily degenerates toward a global linear trend
            # whose between-sample confidence the data cannot support
            # (a few points per axis see no curvature between samples),
            # and uncertainty gating would trust wrong interpolants.
            for ls_scale in (0.3, 0.5, 1.0, 2.0):
                self._lengthscales = base * ls_scale
                for noise in (1e-8, 1e-6, 1e-4):
                    noise = max(noise, self.noise)
                    score = self._log_marginal(X, Y, noise)
                    if score > best_score:
                        best_score = score
                        best = (self.lengthscale * ls_scale, noise)
        self._lengthscales = np.full(X.shape[1], best[0])
        self._noise = best[1]
        K = self._kernel(X, X) + self._noise * np.eye(X.shape[0])
        self._L, self._jitter = _cholesky_with_jitter(K)
        self._alpha = scipy.linalg.cho_solve((self._L, True), Y)
        self._X = X
        # Leave-one-out calibration: the hyperparameter grid is coarse
        # and near-noiseless interpolation is overconfident between the
        # training points, which would let uncertainty gating trust wrong
        # answers.  The closed-form LOO residuals and variances fall out
        # of the precomputed Cholesky (residual_i = alpha_i / [K^-1]_ii,
        # var_i = 1 / [K^-1]_ii), so scale each target's predictive std
        # by the RMS of its LOO z-scores -- never shrinking it below 1.
        K_inv_diag = np.diag(
            scipy.linalg.cho_solve((self._L, True), np.eye(X.shape[0]))
        )
        K_inv_diag = np.maximum(K_inv_diag, 1e-300)
        z_squared = self._alpha**2 / K_inv_diag[:, None]
        self._calibration = np.maximum(
            np.sqrt(z_squared.mean(axis=0)), 1.0
        )
        return self

    def predict(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Predictive mean and std per target, de-standardized.

        The std is *epistemic only* (the latent-function posterior, no
        observation-noise floor): the training data is deterministic
        solver output, so at a labelled point the model genuinely knows
        the answer and active learning can drive the std toward zero.
        The latent variance is shared across targets (one kernel); each
        target's std is scaled back by that target's training spread.
        """
        self._check_fitted()
        Xq = self._standardize_x(X)
        K_star = self._kernel(Xq, self._X)
        mean_std = K_star @ self._alpha
        v = scipy.linalg.solve_triangular(self._L, K_star.T, lower=True)
        # Prior variance is 1.0 (unit-signal kernel on standardized y).
        latent_var = np.maximum(1.0 - (v**2).sum(axis=0), 0.0)
        latent_std = np.sqrt(latent_var)
        mean = mean_std * self._y_scale + self._y_mean
        std = (
            latent_std[:, None] * self._calibration[None, :] * self._y_scale[None, :]
        )
        return mean, std

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload.update(
            {
                "lengthscale": float(self._lengthscales[0]),
                "noise": float(self._noise),
                "jitter": float(self._jitter),
                "calibration": [float(c) for c in self._calibration],
            }
        )
        return payload


class RandomFeatureSurrogate(_FittedBase):
    """Bayesian ridge on random Fourier features (RBF approximation).

    Parameters
    ----------
    n_features:
        Number of random Fourier features D (cos/sin pairs counted once).
    lengthscale:
        RBF lengthscale the feature frequencies are drawn for.
    noise:
        Observation-noise variance of the Bayesian ridge posterior.
    seed:
        Seed of the frequency draw -- fixed by default, so fits are
        deterministic and refits on the same data reproduce bit-identical
        models (which content-addressed saving relies on).
    """

    name = "rff"

    def __init__(
        self,
        n_features: int = 256,
        lengthscale: float = 1.0,
        noise: float = 1e-4,
        seed: int = 20120312,  # the paper's DATE 2012 session date
    ) -> None:
        super().__init__()
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if lengthscale <= 0:
            raise ValueError(f"lengthscale must be > 0, got {lengthscale}")
        if noise <= 0:
            raise ValueError(f"noise must be > 0, got {noise}")
        self.n_features = int(n_features)
        self.lengthscale = float(lengthscale)
        self.noise = float(noise)
        self.seed = int(seed)
        self._W: Optional[np.ndarray] = None
        self._b: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._S_chol: Optional[np.ndarray] = None

    def _features(self, X: np.ndarray) -> np.ndarray:
        """phi(x) = sqrt(2/D) * cos(W x + b)."""
        projection = X @ self._W.T + self._b
        return np.sqrt(2.0 / self.n_features) * np.cos(projection)

    def fit(self, dataset: Dataset) -> "RandomFeatureSurrogate":
        """Closed-form Bayesian ridge over the random feature map."""
        X, Y = self._standardize_fit(dataset)
        rng = np.random.default_rng(self.seed)
        self._W = rng.standard_normal((self.n_features, X.shape[1])) / self.lengthscale
        self._b = rng.uniform(0.0, 2.0 * np.pi, size=self.n_features)
        Phi = self._features(X)
        # Posterior over weights w ~ N(mu, S) with unit Gaussian prior:
        # S^-1 = I + Phi^T Phi / noise,  mu = S Phi^T y / noise.
        A = np.eye(self.n_features) + (Phi.T @ Phi) / self.noise
        L, _ = _cholesky_with_jitter(A)
        self._weights = scipy.linalg.cho_solve((L, True), Phi.T @ Y) / self.noise
        # Keep the Cholesky of S^-1: predictive var needs phi^T S phi,
        # computed per query as ||L^-1 phi||^2.
        self._S_chol = L
        return self

    def predict(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior predictive mean and std per target, de-standardized.

        Epistemic only (posterior-weight uncertainty pushed through the
        feature map), matching :class:`GaussianProcessSurrogate`.
        """
        self._check_fitted()
        Phi = self._features(self._standardize_x(X))
        mean_std = Phi @ self._weights
        half = scipy.linalg.solve_triangular(self._S_chol, Phi.T, lower=True)
        latent_var = (half**2).sum(axis=0)
        latent_std = np.sqrt(latent_var)
        mean = mean_std * self._y_scale + self._y_mean
        std = latent_std[:, None] * self._y_scale[None, :]
        return mean, std

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload.update(
            {
                "n_random_features": self.n_features,
                "lengthscale": self.lengthscale,
                "noise": self.noise,
                "seed": self.seed,
            }
        )
        return payload


#: The surrogate registry: CLI/service model names to constructors.
SURROGATES: Dict[str, type] = {
    GaussianProcessSurrogate.name: GaussianProcessSurrogate,
    RandomFeatureSurrogate.name: RandomFeatureSurrogate,
}


def make_surrogate(name: str = "gp", **options) -> Surrogate:
    """Instantiate a registered surrogate by name."""
    if name not in SURROGATES:
        raise ValueError(
            f"unknown surrogate {name!r}; registered: {sorted(SURROGATES)}"
        )
    return SURROGATES[name](**options)


# -- content-addressed persistence ------------------------------------------


def save_model(model: Surrogate, directory: Union[str, os.PathLike]) -> str:
    """Persist a fitted surrogate into a content-addressed model dir.

    The model pickles to ``<directory>/<digest>/model.pkl`` where
    ``digest`` is the sha256 of the pickle bytes (truncated to 16 hex
    chars), next to a ``meta.json`` with the model's :meth:`describe`
    payload; ``<directory>/latest.json`` is atomically repointed at the
    new id.  Returns the model id.
    """
    if not getattr(model, "is_fitted", False):
        raise ValueError("only fitted surrogates can be saved")
    payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    model_id = hashlib.sha256(payload).hexdigest()[:16]
    root = os.fspath(directory)
    bundle = os.path.join(root, model_id)
    atomic_write(os.path.join(bundle, "model.pkl"), payload)
    meta = dict(model.describe())
    meta["model_id"] = model_id
    atomic_write(
        os.path.join(bundle, "meta.json"),
        (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    atomic_write(
        os.path.join(root, "latest.json"),
        (json.dumps({"model_id": model_id}, sort_keys=True) + "\n").encode("utf-8"),
    )
    return model_id


def list_models(directory: Union[str, os.PathLike]) -> List[Dict[str, object]]:
    """The saved model bundles under a model dir (meta payloads)."""
    root = os.fspath(directory)
    if not os.path.isdir(root):
        return []
    bundles = []
    for name in sorted(os.listdir(root)):
        meta_path = os.path.join(root, name, "meta.json")
        if os.path.isfile(meta_path):
            with open(meta_path, "r", encoding="utf-8") as handle:
                bundles.append(json.load(handle))
    return bundles


def load_model(
    directory: Union[str, os.PathLike], model_id: Optional[str] = None
) -> Surrogate:
    """Load a surrogate from a model dir (the latest one by default).

    The pickle bytes are re-hashed and must match the bundle's id --
    a tampered or torn bundle fails loudly instead of mispredicting.
    """
    root = os.fspath(directory)
    if model_id is None:
        latest = os.path.join(root, "latest.json")
        try:
            with open(latest, "r", encoding="utf-8") as handle:
                model_id = str(json.load(handle)["model_id"])
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no saved surrogate under {root!r}; run 'repro ml fit' first"
            ) from None
    path = os.path.join(root, model_id, "model.pkl")
    with open(path, "rb") as handle:
        payload = handle.read()
    digest = hashlib.sha256(payload).hexdigest()[:16]
    if digest != model_id:
        raise ValueError(
            f"model bundle {model_id!r} is corrupt: content hash {digest!r} "
            "does not match its directory name"
        )
    model = pickle.loads(payload)
    if not isinstance(model, Surrogate):
        raise ValueError(
            f"model bundle {model_id!r} did not unpickle to a Surrogate "
            f"(got {type(model).__name__})"
        )
    return model
