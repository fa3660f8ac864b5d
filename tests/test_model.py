"""Data model: embeddings, sampling, serialization."""
import json
import math
import warnings

import numpy as np
import pytest

from manifold_diffusion import model as model_mod
from manifold_diffusion.activations import make_activation
from manifold_diffusion.model import (EmbeddingMatrix, TheoryParams,
                                      build_embedding, make_model,
                                      model_from_config, model_to_config,
                                      resolve_config, sample_count,
                                      sample_dataset)


def test_isometry_embedding_gram_identity():
    emb = build_embedding(50, 20, "deterministic_isometry", seed=3)
    gram = emb.entries.T @ emb.entries / 20
    assert np.abs(gram - np.eye(20)).max() < 1e-12


def test_gaussian_embedding_shape_and_scale():
    emb = build_embedding(400, 100, "gaussian_iid", seed=1)
    assert emb.entries.shape == (400, 100)
    # i.i.d. standard normal entries: mean ~ 0, variance ~ 1
    assert abs(emb.entries.mean()) < 0.02
    assert abs(emb.entries.var() - 1.0) < 0.03


def test_embedding_rejects_p_above_d():
    with pytest.raises(ValueError):
        build_embedding(3, 5, "gaussian_iid", seed=0)
    with pytest.raises(ValueError, match="unknown ensemble"):
        build_embedding(5, 3, "haar", seed=0)


def test_embedding_matrix_isometry_validation():
    F = np.random.default_rng(0).standard_normal((8, 4))
    with pytest.raises(ValueError, match="isometry violated"):
        EmbeddingMatrix(entries=F, ensemble="deterministic_isometry")


def test_model_derived_quantities():
    mdl = make_model(d=20, p=5, m=2.0)
    assert mdl.beta == pytest.approx(0.25)
    assert mdl.m == pytest.approx(2.0)
    assert np.allclose(mdl.mu, 2.0 * np.ones(5))
    assert mdl.mu_tilde_norm_sq == pytest.approx(4.0)


def test_model_validation_errors():
    with pytest.raises(ValueError):
        make_model(d=4, p=2, rho=-1.0)
    with pytest.raises(ValueError):
        make_model(d=4, p=2, alpha=0.0)
    with pytest.raises(ValueError, match="length p"):
        make_model(d=4, p=2, mu=np.ones(3))


def test_embed_linear_isometry_preserves_latent_norm_on_average():
    mdl = make_model(d=64, p=16)
    xi = np.random.default_rng(5).standard_normal((10, 16))
    x = mdl.embed(xi)
    # ||phi(F xi / sqrt(p))||^2 = xi^T (F^T F / p) xi = ||xi||^2 for linear phi
    assert np.allclose(np.sum(x * x, axis=1), np.sum(xi * xi, axis=1))


def test_embed_applies_activation_componentwise():
    mdl = make_model(d=8, p=4, activation="tanh", seed=2)
    xi = np.ones((1, 4))
    pre = xi @ mdl.embedding.entries.T / 2.0
    assert np.allclose(mdl.embed(xi), np.tanh(pre))


def test_sample_count_round_and_cap():
    assert sample_count(0.25, 40) == 22026  # round(e^10)
    assert sample_count(1e-9, 4) == 1
    with pytest.raises(ValueError, match="cap"):
        sample_count(1.0, 40)


def test_sample_count_meets_the_cap_before_any_exponential():
    # the benchmark's training set is e^(0.3 * 40) = 162754.79 samples;
    # past the cap's log e^(alpha d) is not taken, since it overflows from
    # alpha d ~ 709.8
    assert sample_count(0.3, 40) == 162_755
    for log_n in (math.log(model_mod.MAX_SAMPLES) + 1e-9, 709.0, 710.0, 1e4, math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the 10000000 cap"):
                sample_count(log_n / 40, 40)


@pytest.mark.parametrize("most", [3, 4, 128, 8192])
def test_balanced_slices_cover_n_in_near_equal_parts(most):
    # n from 1 past several multiples of ``most``, with 16,257 = 127 * 128 + 1
    # at 128, where ceil(n / ceil(n / most))-row tiles left a single row
    ns = {*range(1, 5 * most + 3), 16_257} if most < 128 else {
        1, 2, 3, most - 1, most, most + 1, 2 * most - 1, 2 * most, 2 * most + 1,
        5 * most + 1, 16_257, 162_754, 162_755}
    for n in sorted(ns):
        slices = model_mod._balanced_slices(n, most)
        sizes = [s.stop - s.start for s in slices]
        assert len(slices) == -(-n // most), (n, most)
        assert slices[0].start == 0 and slices[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        assert n == 1 or min(sizes) > 1, (n, most, sizes)


def test_sample_dataset_refuses_a_count_past_the_cap(monkeypatch):
    # rejected before the generator is made or any array allocated
    mdl = make_model(d=4, p=2)
    monkeypatch.setattr(model_mod, "_rng", lambda *a: pytest.fail("drew samples"))
    with pytest.raises(ValueError, match="exceeds the 10000000 cap"):
        sample_dataset(mdl, model_mod.MAX_SAMPLES + 1, seed=0)


def test_dataset_balanced_labels_and_reproducible():
    mdl = make_model(d=12, p=6)
    ds1 = sample_dataset(mdl, 100, seed=9)
    ds2 = sample_dataset(mdl, 100, seed=9)
    ds3 = sample_dataset(mdl, 100, seed=10)
    assert ds1.ambient.shape == (100, 12) and ds1.n == 100
    assert ds1.labels.sum() == 0
    assert np.array_equal(ds1.ambient, ds2.ambient)
    assert not np.array_equal(ds1.ambient, ds3.ambient)


def test_dataset_latent_means_follow_labels():
    mdl = make_model(d=16, p=8, m=3.0, rho=0.01)
    ds = sample_dataset(mdl, 400, seed=0)
    # linear isometric data: F^T x / sqrt(p) = (F^T F / p) xi = xi
    latents = ds.ambient @ mdl.embedding.entries / np.sqrt(mdl.p)
    plus = latents[ds.labels == 1].mean(axis=0)
    minus = latents[ds.labels == -1].mean(axis=0)
    assert np.allclose(plus, mdl.mu, atol=0.05)
    assert np.allclose(minus, -mdl.mu, atol=0.05)


@pytest.mark.parametrize("activation", ["linear", "tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("ensemble", model_mod.ENSEMBLES)
@pytest.mark.parametrize("d,p", [(40, 20), (12, 6)])
def test_dataset_blocks_keep_the_bytes_of_one_draw(activation, ensemble, d, p):
    # the samples are embedded block by block; each must keep the bytes of
    # the whole (n, p) latent draw embedded at once, across block edges
    mdl = make_model(d=d, p=p, m=1.3, rho=0.7, activation=activation,
                     ensemble=ensemble, seed=4)
    sizes = [1, 2, 8192, 8193, 16385]
    if activation == "tanh":
        sizes.append(100_003)
    for n in sizes:
        labels = np.where(np.arange(n) % 2 == 0, 1, -1)
        want = mdl.embed(labels[:, None] * mdl.mu
                         + np.sqrt(mdl.rho) * model_mod._rng(5).standard_normal((n, p)))
        ds = sample_dataset(mdl, n, seed=5)
        assert np.array_equal(ds.labels, labels)
        assert ds.ambient.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n", [1, 8192, 8193, 20_000])
def test_sample_dataset_stores_the_streams_blocks(n):
    # sample_dataset stores what SampleStream yields, block by block, and
    # a stream yields the same blocks at each pass
    mdl = make_model(d=10, p=5, activation="tanh", seed=6)
    stream = model_mod.SampleStream(mdl, n, seed=7)
    blocks = list(stream.blocks())
    assert [len(b) for b in blocks] == [s.stop - s.start
                                        for s in model_mod._balanced_slices(n, 8192)]
    ds = sample_dataset(mdl, n, seed=7)
    assert ds.ambient.tobytes() == np.concatenate(blocks).tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(blocks, stream.blocks()))
    [whole] = ds.blocks()
    assert whole is ds.ambient
    with pytest.raises(ValueError, match="exceeds the 10000000 cap"):
        model_mod.SampleStream(mdl, model_mod.MAX_SAMPLES + 1, seed=0)


@pytest.mark.parametrize("activation", ["tanh", "linear"])
def test_dataset_memory_is_the_samples_plus_one_block(activation):
    import tracemalloc

    n, d = 200_000, 40
    mdl = make_model(d=d, p=20, activation=activation, seed=1)
    tracemalloc.start()
    try:
        ds = sample_dataset(mdl, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.ambient.shape == (n, d)
    # no (n, p) latents and no second (n, d) array: 61 MiB of samples plus
    # one block's temporaries
    assert peak <= 8 * n * d + 16 * 2**20


def test_dataset_rejects_empty():
    mdl = make_model(d=4, p=2)
    with pytest.raises(ValueError):
        sample_dataset(mdl, 0, seed=0)


def test_embedding_and_dataset_draw_on_separate_streams():
    # the CLI passes one seed to both: F's Gaussian draw must not reappear
    # as the latent noise of the first d training samples
    d, p, seed = 40, 20, 3
    mdl = make_model(d=d, p=p, ensemble="gaussian_iid", seed=seed)
    ds = sample_dataset(mdl, 100, seed=seed)
    # linear data: the latents solve (F / sqrt(p)) xi = x, F of full rank p
    latents = np.linalg.lstsq(mdl.embedding.entries / np.sqrt(p), ds.ambient.T,
                              rcond=None)[0].T
    assert np.allclose(mdl.embed(latents), ds.ambient)
    noise = latents - ds.labels[:, None] * mdl.mu[None, :]
    assert not np.allclose(noise[:d], mdl.embedding.entries)
    # F's stream has key [seed, 1]; every other draw has high word 0
    want = np.random.Generator(np.random.Philox(key=[seed, 1]))
    assert np.array_equal(mdl.embedding.entries, want.standard_normal((d, p)))
    # a seed beyond the low word would reach into another stream's key
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            build_embedding(d, p, "gaussian_iid", bad)


def test_config_round_trip():
    mdl = make_model(d=10, p=4, rho=0.7, m=1.5,
                     activation="tanh", ensemble="gaussian_iid", seed=11)
    cfg = model_to_config(mdl)
    back = model_from_config({**cfg, "seed": 11})
    assert back.d == mdl.d and back.p == mdl.p
    assert back.rho == mdl.rho
    assert back.activation.kind == "tanh"
    assert np.array_equal(back.embedding.entries, mdl.embedding.entries)

    loaded = model_from_config({**json.loads(json.dumps(model_to_config(mdl))),
                                "seed": 11})
    assert np.array_equal(loaded.embedding.entries, mdl.embedding.entries)


def test_config_explicit_mu_and_mu_file(tmp_path):
    mu = np.array([1.0, -2.0, 0.5])
    mdl = make_model(d=6, p=3, mu=mu)
    cfg = model_to_config(mdl)
    assert cfg["mu"] == mu.tolist()
    assert np.allclose(model_from_config(cfg).mu, mu)

    mu_path = tmp_path / "mu.txt"
    np.savetxt(mu_path, mu)
    loaded = model_from_config({"d": 6, "p": 3, "mu_file": str(mu_path)})
    assert np.allclose(loaded.mu, mu)


def test_resolve_config_types_each_field():
    cfg = resolve_config({"d": np.int64(16), "p": 8.0, "rho": 2, "alpha": 1,
                          "m": np.float32(1.5), "seed": 3.0})
    assert cfg == {"d": 16, "p": 8, "rho": 2.0, "alpha": 1.0, "m": 1.5,
                   "seed": 3, "activation": "linear",
                   "ensemble": "deterministic_isometry"}
    assert all(type(cfg[k]) is model_mod.CONFIG_TYPES[k] for k in cfg)
    for bad in ({"d": 16.7}, {"d": True}, {"p": "8"}, {"seed": 1.5},
                {"seed": False}, {"rho": None}, {"rho": True}, {"m": "1"},
                {"activation": ["tanh"]}, {"ensemble": None}):
        with pytest.raises(ValueError, match=f"config field {next(iter(bad))}"):
            resolve_config({"d": 16, "p": 8, **bad})
    with pytest.raises(ValueError, match="config field d must be int"):
        make_model(16.7, 8)


def test_resolve_config_rejects_non_finite_values():
    for key, value in (("rho", math.nan), ("rho", math.inf), ("alpha", math.nan),
                       ("alpha", math.inf), ("m", math.nan), ("m", -math.inf)):
        with pytest.raises(ValueError, match=f"config field {key} must lie in"):
            resolve_config({"d": 16, "p": 8, key: value})
    with pytest.raises(ValueError, match="mu must be finite"):
        resolve_config({"d": 4, "p": 2, "mu": [1.0, math.nan]})
    with pytest.raises(ValueError, match="mu must hold numbers"):
        resolve_config({"d": 4, "p": 2, "mu": {"a": 1.0}})
    # the sweep's keys are checked the same way
    with pytest.raises(ValueError, match="alpha must lie in"):
        resolve_config({"alpha": math.inf}, ("alpha", "rho", "m", "seed"))


def test_resolve_config_rejects_a_center_too_large_to_square():
    # the theory reads m^2 + rho and |mu|^2 / p; each is checked without a
    # RuntimeWarning, with and without d and p
    for cfg, keys in (({"d": 4, "p": 2}, model_mod.CONFIG_KEYS),
                      ({}, ("alpha", "rho", "m", "seed"))):
        with pytest.raises(ValueError, match="config field m = 1e\\+160 is too large"):
            resolve_config({**cfg, "m": 1e160}, keys)
        assert resolve_config({**cfg, "m": -1e150}, keys)["m"] == -1e150
    # m^2 is finite but the center m * ones(p) has |mu|^2 = p m^2
    with pytest.raises(ValueError, match="config field m is too large"):
        resolve_config({"d": 4, "p": 2, "m": 1e154})
    for mu in ([1e160, 1.0], [1e154] * 2 + [-1e154] * 2):
        with pytest.raises(ValueError, match="config field mu is too large"):
            resolve_config({"d": 4, "p": len(mu), "mu": mu})
    assert resolve_config({"d": 4, "p": 2, "mu": [1e150, 1.0]})["mu"][0] == 1e150


def test_resolve_config_rejects_a_rho_too_large_for_the_theory():
    # the theory's inner minimizer divides by rho (m^2 + rho - q), so rho
    # (m^2 + rho) must be finite, with |mu|^2 / p for m^2 once p is known;
    # each is checked without a RuntimeWarning, with and without d and p
    for cfg, keys in (({"d": 4, "p": 2}, model_mod.CONFIG_KEYS),
                      ({}, ("alpha", "rho", "m", "seed"))):
        with pytest.raises(ValueError, match="config field rho = 1e\\+300 is too large"):
            resolve_config({**cfg, "rho": 1e300}, keys)
        assert resolve_config({**cfg, "rho": 1e154}, keys)["rho"] == 1e154
    with pytest.raises(ValueError, match="config field rho = 10 is too large"):
        resolve_config({"rho": 10.0, "m": 1e154}, ("alpha", "rho", "m", "seed"))
    with pytest.raises(ValueError, match="config field rho = 10 is too large"):
        resolve_config({"d": 4, "p": 2, "rho": 10.0, "mu": [1e154, 0.0]})
    assert resolve_config({"d": 4, "p": 2, "rho": 1.0, "mu": [1e154, 0.0]})["rho"] == 1.0


def test_theory_params_reject_invalid_values():
    lin = make_activation("linear")
    for rho in (0.0, -0.5):
        with pytest.raises(ValueError, match="rho"):
            TheoryParams(1.0, rho, 0.5, lin)
    for beta in (0.0, 3.0):
        with pytest.raises(ValueError, match="beta"):
            TheoryParams(1.0, 1.0, beta, lin)
    with pytest.raises(ValueError, match="ensemble"):
        TheoryParams(1.0, 1.0, 0.5, lin, ensemble="haar")


def test_theory_params_are_hashable_records():
    a = TheoryParams(1.0, 1.0, 0.5, make_activation("linear"))
    b = TheoryParams(1.0, 1.0, 0.5, make_activation("linear"))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, TheoryParams(1.0, 1.0, 0.25, a.activation)}) == 2


@pytest.mark.parametrize("cfg", [
    {"d": 16, "p": 8},
    {"d": 16, "p": 8, "m": 1.3, "rho": 0.7, "activation": "tanh",
     "ensemble": "gaussian_iid"},
    {"d": 8, "p": 4, "mu": [0.5, 1.0, 1.5, 2.0], "m": 9.0},
])
def test_theory_params_from_config_match_the_model(cfg):
    params = TheoryParams.from_config(cfg)
    assert params == model_from_config(cfg).theory_params
    # m is read off the center vector, as the model reads it
    mu = np.asarray(cfg.get("mu", cfg.get("m", 1.0) * np.ones(cfg["p"])))
    assert params.m == float(np.linalg.norm(mu) / np.sqrt(cfg["p"]))


def test_resolve_config_reads_mu_file_once_and_passes_it_on_as_mu(tmp_path, monkeypatch):
    # the values of the file are the resolved config's center, so a second
    # resolution (the model's, the theory's) reads no file
    mu_path = tmp_path / "mu.txt"
    np.savetxt(mu_path, [1.0, -2.0, 0.5])
    loads = []
    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: loads.append(a) or real(*a, **k))
    cfg = resolve_config({"d": 6, "p": 3, "mu_file": str(mu_path)})
    assert cfg["mu"] == [1.0, -2.0, 0.5] and "mu_file" not in cfg
    assert np.array_equal(model_from_config(cfg).mu, [1.0, -2.0, 0.5])
    assert TheoryParams.from_config(cfg) == model_from_config(cfg).theory_params
    assert len(loads) == 1
    # a config that gives both keys would run on one of them: rejected
    with pytest.raises(ValueError, match="mu and mu_file"):
        resolve_config({"d": 6, "p": 3, "mu": [1.0] * 3, "mu_file": str(mu_path)})
    assert len(loads) == 1


def test_resolve_config_holds_the_seed_below_2_64_minus_1():
    # the experiments draw their noise with seed + 1, which must still be a
    # seed; the message names the seed given
    top = (1 << 64) - 1
    assert resolve_config({"d": 4, "p": 2, "seed": top - 1})["seed"] == top - 1
    for bad in (top, -1):
        with pytest.raises(ValueError, match=f"seed must lie in .*got {bad}: .*seed \\+ 1"):
            resolve_config({"d": 4, "p": 2, "seed": bad})
        with pytest.raises(ValueError, match=f"got {bad}"):
            resolve_config({"seed": bad}, ("alpha", "rho", "m", "seed"))


def test_theory_params_from_config_rejects_a_misread_center(tmp_path):
    with pytest.raises(ValueError, match="length p=4"):
        TheoryParams.from_config({"d": 8, "p": 4, "mu": [1.0, 2.0]})
    mu_path = tmp_path / "mu.txt"
    np.savetxt(mu_path, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="length p=4"):
        TheoryParams.from_config({"d": 8, "p": 4, "mu_file": str(mu_path)})
