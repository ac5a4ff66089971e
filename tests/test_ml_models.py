"""Tests of repro.ml.models: GP/RFF surrogates and content-addressed save/load."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.ml.dataset import Dataset
from repro.ml.features import FeatureField, FeatureSchema
from repro.ml.models import (
    SURROGATES,
    GaussianProcessSurrogate,
    RandomFeatureSurrogate,
    Surrogate,
    _cholesky_with_jitter,
    list_models,
    load_model,
    make_surrogate,
    save_model,
)


def toy_dataset(n=12, seed=7):
    """A smooth 2D regression problem wrapped as a Dataset."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = np.column_stack(
        [
            np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1],
            (X**2).sum(axis=1),
        ]
    )
    schema = FeatureSchema(
        fields=(
            FeatureField(path="a", kind="numeric"),
            FeatureField(path="b", kind="numeric"),
        )
    )
    return Dataset(
        X=X,
        y=y,
        targets=("f", "g"),
        schema=schema,
        spec_hashes=tuple(f"h{i}" for i in range(n)),
        scenarios=tuple(f"s{i}" for i in range(n)),
    )


class TestRegistry:
    def test_builtin_names(self):
        assert set(SURROGATES) == {"gp", "rff"}

    def test_make_surrogate_builds_each(self):
        assert isinstance(make_surrogate("gp"), GaussianProcessSurrogate)
        assert isinstance(make_surrogate("rff"), RandomFeatureSurrogate)

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown surrogate"):
            make_surrogate("forest")

    def test_fitted_models_satisfy_the_protocol(self):
        ds = toy_dataset()
        for name in SURROGATES:
            assert isinstance(make_surrogate(name).fit(ds), Surrogate)


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        ds = toy_dataset()
        model = make_surrogate("gp").fit(ds)
        mean, std = model.predict(ds.X)
        assert mean.shape == (ds.n_samples, 2)
        assert std.shape == (ds.n_samples, 2)
        assert np.allclose(mean, ds.y, atol=1e-3)

    def test_std_is_small_on_data_and_grows_away_from_it(self):
        ds = toy_dataset()
        model = make_surrogate("gp").fit(ds)
        _, std_on = model.predict(ds.X)
        _, std_off = model.predict(np.full((1, 2), 25.0))
        assert float(std_on.max()) < 0.05
        assert float(std_off.min()) > float(std_on.max())

    def test_predict_rejects_wrong_width(self):
        model = make_surrogate("gp").fit(toy_dataset())
        with pytest.raises(ValueError, match="fitted on 2"):
            model.predict(np.zeros((1, 3)))

    def test_fit_needs_two_samples(self):
        ds = toy_dataset(n=1)
        with pytest.raises(ValueError, match="2\\+ distinct ok records"):
            make_surrogate("gp").fit(ds)

    def test_describe_is_json_friendly(self):
        model = make_surrogate("gp").fit(toy_dataset())
        described = json.loads(json.dumps(model.describe()))
        assert described["model"] == "gp"
        assert described["n_samples"] == 12
        assert described["targets"] == ["f", "g"]


class TestRandomFeatures:
    def test_fits_smooth_functions_approximately(self):
        ds = toy_dataset(n=40)
        model = make_surrogate("rff", n_features=512).fit(ds)
        mean, std = model.predict(ds.X)
        assert np.allclose(mean, ds.y, atol=0.15)
        assert np.all(std >= 0.0)

    def test_seeded_fits_are_deterministic(self):
        ds = toy_dataset()
        first = make_surrogate("rff").fit(ds)
        second = make_surrogate("rff").fit(ds)
        query = np.array([[0.3, -0.4]])
        assert np.array_equal(first.predict(query)[0], second.predict(query)[0])

    def test_uncertainty_grows_away_from_data(self):
        ds = toy_dataset(n=40)
        model = make_surrogate("rff", n_features=512).fit(ds)
        _, std_on = model.predict(ds.X)
        _, std_off = model.predict(np.full((1, 2), 10.0))
        assert float(std_off.min()) > float(std_on.mean())


class TestCholeskyJitter:
    def test_recovers_from_a_singular_kernel(self):
        K = np.ones((4, 4))  # rank one: plain Cholesky fails
        L, jitter = _cholesky_with_jitter(K)
        assert jitter > 0.0
        assert np.allclose(L @ L.T, K + jitter * np.eye(4))

    def test_gp_survives_duplicate_rows(self):
        ds = toy_dataset()
        X = np.vstack([ds.X, ds.X[:1]])
        y = np.vstack([ds.y, ds.y[:1]])
        dup = Dataset(X=X, y=y, targets=ds.targets, schema=ds.schema)
        model = GaussianProcessSurrogate(optimize=False).fit(dup)
        mean, _ = model.predict(ds.X[:1])
        assert np.allclose(mean, ds.y[:1], atol=1e-2)


class TestSaveLoad:
    def test_round_trip_is_content_addressed(self, tmp_path):
        ds = toy_dataset()
        model = make_surrogate("gp").fit(ds)
        model_id = save_model(model, tmp_path)
        # The id is the truncated sha256 of the stored pickle itself.
        payload = (tmp_path / model_id / "model.pkl").read_bytes()
        digest = __import__("hashlib").sha256(payload).hexdigest()
        assert model_id == digest[:16]
        clone = load_model(tmp_path)
        query = np.array([[0.1, 0.2]])
        assert np.array_equal(clone.predict(query)[0], model.predict(query)[0])

    def test_saving_twice_reuses_the_bundle(self, tmp_path):
        model = make_surrogate("rff").fit(toy_dataset())
        first = save_model(model, tmp_path)
        second = save_model(model, tmp_path)
        assert first == second
        assert [entry["model_id"] for entry in list_models(tmp_path)] == [first]

    def test_load_by_id_and_latest_pointer(self, tmp_path):
        gp_id = save_model(make_surrogate("gp").fit(toy_dataset()), tmp_path)
        rff_id = save_model(make_surrogate("rff").fit(toy_dataset()), tmp_path)
        assert load_model(tmp_path, gp_id).name == "gp"
        assert load_model(tmp_path).name == "rff"  # latest.json wins
        latest = json.loads((tmp_path / "latest.json").read_text())
        assert latest["model_id"] == rff_id

    def test_tampered_bundle_is_rejected(self, tmp_path):
        model_id = save_model(make_surrogate("gp").fit(toy_dataset()), tmp_path)
        bundle = tmp_path / model_id / "model.pkl"
        bundle.write_bytes(bundle.read_bytes() + b" ")
        with pytest.raises(ValueError, match="content hash"):
            load_model(tmp_path, model_id)

    def test_missing_directory_is_a_clear_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope")
