"""Data model: embeddings, sampling, serialization."""
import json
import math
import re
import types
import warnings

import numpy as np
import pytest

from manifold_diffusion import cli, collapse, diffusion, experiments, quadrature, speciation
from manifold_diffusion import model as model_mod
from manifold_diffusion.activations import make_activation
from manifold_diffusion.model import (EmbeddingMatrix, ManifoldModel, TheoryParams,
                                      build_embedding, check_range, make_model,
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
    with pytest.raises(ValueError, match=r"n <= 1e\+07"):
        sample_count(1.0, 40)


def test_sample_count_meets_the_cap_before_any_exponential():
    # the benchmark's training set is e^(0.3 * 40) = 162754.79 samples;
    # past the cap's log e^(alpha d) is not taken, since it overflows from
    # alpha d ~ 709.8; an infinite alpha is out of its range (see
    # test_model_scalars_are_refused_outside_their_range)
    assert sample_count(0.3, 40) == 162_755
    for log_n in (math.log(model_mod.MAX_SAMPLES) + 1e-9, 709.0, 710.0, 1e4, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"n <= 1e\+07, got"):
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
    with pytest.raises(ValueError, match=r"n <= 1e\+07, got"):
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


def test_noise_and_the_next_seeds_training_set_share_no_draw():
    # the experiments draw the noise of seed s from _rng(s + 1); the training
    # set of seed s + 1 is on its own stream, so no draw is shared.  The
    # latent normals are read back through a linear isometric model
    mdl = make_model(d=8, p=4, activation="linear", seed=0)
    ds = sample_dataset(mdl, 500, seed=6)
    latents = ds.ambient @ mdl.embedding.entries / np.sqrt(mdl.p)
    normals = (latents - ds.labels[:, None] * mdl.mu) / np.sqrt(mdl.rho)
    assert np.abs(normals - model_mod._rng(6, stream=2).standard_normal((500, 4))).max() < 1e-12
    noise = model_mod._rng(5 + 1).standard_normal(normals.size)
    assert np.abs(np.subtract.outer(normals.ravel(), noise)).min() > 1e-9


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
                         + np.sqrt(mdl.rho) * model_mod._rng(5, stream=2).standard_normal((n, p)))
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
    with pytest.raises(ValueError, match=r"n <= 1e\+07, got"):
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
        with pytest.raises(ValueError, match=f"need config field {key} with"):
            resolve_config({"d": 16, "p": 8, key: value})
    with pytest.raises(ValueError, match="mu must be finite"):
        resolve_config({"d": 4, "p": 2, "mu": [1.0, math.nan]})
    with pytest.raises(ValueError, match="mu must hold numbers"):
        resolve_config({"d": 4, "p": 2, "mu": {"a": 1.0}})
    # the sweep's keys are checked the same way
    with pytest.raises(ValueError, match="need config field alpha with"):
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


def test_check_range_names_the_interval_and_each_end():
    check_range("beta", 1.0, 0.0, 1.0, "(]")
    check_range("r", 0.0, 0.0, ends="[)")
    check_range("m", -1e300)
    for args, text in ((("beta", 0.0, 0.0, 1.0, "(]"), "need beta with 0 < beta <= 1, got 0.0"),
                       (("r", -1.0, 0.0, 2.0, "[]"), "need r with 0 <= r <= 2, got -1.0"),
                       (("m", math.nan), "need m with -inf < m < inf, got nan")):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            check_range(*args)
    with pytest.raises(ValueError, match=r"^need config field rho with 0 < rho < inf, got inf$"):
        check_range("rho", math.inf, 0.0, what="config field rho")


class _SquaredNorm:
    """Stands in for a vector whose product with itself is ``s``, so that
    `gamma0_rows` can be handed an S that no real vector has."""

    def __init__(self, s):
        self.s = s

    def __matmul__(self, other):
        return self.s


_TANH = make_activation("tanh")
_EMBEDDING = build_embedding(8, 4, "deterministic_isometry", seed=0)
_TANH_MODEL = ManifoldModel(8, 4, 1.0, np.ones(4), _TANH, _EMBEDDING)


def _rows_of_norm(s):
    gf = types.SimpleNamespace(activation=_TANH, rho=1.0, gamma0=lambda y: _SquaredNorm(s))
    return speciation.gamma0_rows(_TANH_MODEL, gf)


# (entry point and scalar, its interval, a finite value outside it or None,
# the call with that scalar set): every scalar a model or theory entry point
# takes is held to its interval by `check_range`
_SCALARS = [
    ("isometry alpha", "0 < alpha < inf", 0.0,
     lambda v: collapse.collapse_time_linear_isometry(v, 0.5)),
    ("isometry beta", "0 < beta <= 1", 1.5,
     lambda v: collapse.collapse_time_linear_isometry(0.5, v)),
    ("isometry rho", "0 < rho < inf", -1.0,
     lambda v: collapse.collapse_time_linear_isometry(0.5, 0.5, rho=v)),
    ("mp_logdet eta", "0 < eta < inf", 0.0, lambda v: collapse.mp_logdet(v, 0.5)),
    ("mp_logdet beta", "0 < beta <= 1", 0.0, lambda v: collapse.mp_logdet(1.0, v)),
    ("rmt alpha", "0 < alpha < inf", -0.5,
     lambda v: collapse.collapse_time_linear_rmt(v, 0.5)),
    ("rmt rho", "0 < rho < inf", 0.0,
     lambda v: collapse.collapse_time_linear_rmt(0.5, 0.5, rho=v)),
    ("glm alpha", "0 < alpha < inf", 0.0,
     lambda v: collapse.collapse_time_glm(TheoryParams(1.0, 1.0, 0.5, _TANH), v)),
    ("psi r", "0 <= r < inf", -1e-3, lambda v: collapse.psi(v, 1.0, 1.0)),
    ("psi_quadrature_check r", "0 <= r < inf", -1.0,
     lambda v: collapse.psi_quadrature_check(v, 1.0, 1.0)),
    ("TheoryParams m", "-inf < m < inf", None, lambda v: TheoryParams(v, 1.0, 0.5, _TANH)),
    ("TheoryParams rho", "0 < rho < inf", 0.0, lambda v: TheoryParams(1.0, v, 0.5, _TANH)),
    ("TheoryParams beta", "0 < beta <= 1", 2.0, lambda v: TheoryParams(1.0, 1.0, v, _TANH)),
    ("ManifoldModel rho", "0 < rho < inf", -1.0,
     lambda v: ManifoldModel(8, 4, v, np.ones(4), _TANH, _EMBEDDING)),
    ("sample_count alpha", "0 < alpha < inf", -1.0, lambda v: sample_count(v, 40)),
    ("GammaFunctions rho", "0 < rho < inf", 0.0, lambda v: speciation.GammaFunctions(_TANH, v)),
    ("gamma0_rows S", "0 <= S < inf", -1.0, _rows_of_norm),
    ("speciation_time_finite S", "0 < S < inf", 0.0, speciation.speciation_time_finite),
    ("speciation_time_asymptotic beta", "0 < beta <= 1", 2.0,
     lambda v: speciation.speciation_time_asymptotic(v, 8, 1.0, speciation.GepConstants(0.5, 0.1))),
    ("speciation_time_asymptotic mu_tilde_norm_sq", "0 <= mu_tilde_norm_sq < inf", -1.0,
     lambda v: speciation.speciation_time_asymptotic(0.5, 8, v, speciation.GepConstants(0.5, 0.1))),
    ("potential S", "0 <= S < inf", -1.0, lambda v: speciation.potential(0.5, 1.0, v)),
    ("potential_curvature_at_zero S", "0 <= S < inf", -1.0,
     lambda v: speciation.potential_curvature_at_zero(1.0, v)),
    ("reduced_sde_simulate dt", "0 < dt < inf", 0.0,
     lambda v: speciation.reduced_sde_simulate(1.0, 0.5, v, 2.0, 2, seed=0)),
    ("reduced_sde_simulate S", "0 <= S < inf", -1.0,
     lambda v: speciation.reduced_sde_simulate(1.0, 0.5, 0.1, v, 2, seed=0)),
]


@pytest.mark.parametrize("interval, value, call", [
    pytest.param(interval, value, call, id=f"{label} {value}")
    for label, interval, outside, call in _SCALARS
    for value in (math.nan, math.inf, -math.inf, outside) if value is not None])
def test_model_scalars_are_refused_outside_their_range(monkeypatch, interval, value, call):
    # refused with the one message, before any quadrature, solve or draw
    # and without a RuntimeWarning (an error under this suite's settings)
    for module, name in ((collapse, "f_star"), (collapse, "_bisect_time"),
                         (collapse, "_mp_roots"), (collapse, "std_normal_grid"),
                         (speciation, "normal_moments"), (speciation, "_rng")):
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: pytest.fail(_name))
    with pytest.raises(ValueError, match=f"^need \\S+ with {re.escape(interval)}, "
                                         f"got {re.escape(str(value))}$"):
        call(value)


def test_model_refuses_a_non_finite_center():
    for mu in ([1.0, math.nan, 1.0, 1.0], [math.inf] * 4):
        with pytest.raises(ValueError, match="mu must be finite"):
            ManifoldModel(8, 4, 1.0, np.array(mu), _TANH, _EMBEDDING)


_LINEAR = make_activation("linear")
_SCORE = diffusion.EmpiricalScore(np.zeros((4, 8)))
_WIDE_MODEL = ManifoldModel(26, 25, 1.0, np.ones(25), _TANH,
                            build_embedding(26, 25, "gaussian_iid", seed=0))


def _crossing(n, n_noise):
    return experiments.collapse_crossing_experiment(
        model_mod.SampleStream(_TANH_MODEL, n, 0), [0.5, 0.1], n_noise, seed=0)


# (entry point and count, its interval, the values outside it, the call with
# that count set, or the argv of a command with None for the count): every
# count, size and solver tolerance is held to its interval by `check_range`
_COUNTS = [
    ("glm t_tol", "0 <= t_tol < inf", (-1e-12, -1.0, math.nan, math.inf),
     lambda v: collapse.collapse_time_glm(TheoryParams(1.0, 1.0, 0.5, _LINEAR), 0.5, t_tol=v)),
    ("rmt t_tol", "0 <= t_tol < inf", (-1e-12, -1.0, math.nan, math.inf),
     lambda v: collapse.collapse_time_linear_rmt(0.5, 0.5, t_tol=v)),
    ("f_star grid_points", "2 <= grid_points < inf", (1,),
     lambda v: collapse.f_star(0.5, TheoryParams(1.0, 1.0, 0.5, _TANH), grid_points=v)),
    ("reduced_sde_simulate n_traj", "1 <= n_traj < inf", (0,),
     lambda v: speciation.reduced_sde_simulate(1.0, 0.5, 0.1, 2.0, v, seed=0)),
    ("log_partitions B", "1 <= B < inf", (0,),
     lambda v: diffusion.log_partitions(np.zeros((1, v, 8)), [0.5], [np.ones((2, 8))], 2)),
    ("std_normal_nodes n", "2 <= n < inf", (1,), quadrature.std_normal_nodes),
    ("speciation_experiment n_traj", "1 <= n_traj < inf", (0,),
     lambda v: experiments.speciation_experiment(_TANH_MODEL, _SCORE, np.ones(8),
                                                 [1.0, 0.5], v, 2, seed=0)),
    ("speciation_experiment n_clones", "2 <= n_clones < inf", (1,),
     lambda v: experiments.speciation_experiment(_TANH_MODEL, _SCORE, np.ones(8),
                                                 [1.0, 0.5], 2, v, seed=0)),
    ("collapse_crossing_experiment n", "2 <= n <= 1e+07", (1,), lambda v: _crossing(v, 2)),
    ("collapse_crossing_experiment n_noise", "1 <= n_noise < inf", (0,),
     lambda v: _crossing(16, v)),
    ("tilted_log_partition n_noise", "1 <= n_noise < inf", (0,),
     lambda v: experiments.tilted_log_partition(_TANH_MODEL, model_mod.Dataset(np.zeros((4, 8))),
                                                0.5, 1.0, v, seed=0)),
    ("free_energy_mc n_x", "1 <= n_x < inf", (0,),
     lambda v: experiments.free_energy_mc(_TANH_MODEL, 0.5, v, 10_000, seed=0)),
    ("free_energy_mc n_latent", "10000 <= n_latent < inf", (9_999,),
     lambda v: experiments.free_energy_mc(_TANH_MODEL, 0.5, 2, v, seed=0)),
    ("free_energy_mc p", "1 <= p <= 24", (25,),
     lambda v: experiments.free_energy_mc(_WIDE_MODEL, 0.5, 2, 10_000, seed=0)),
    ("rem_derivative_check n_rep", "1 <= n_rep < inf", (0,),
     lambda v: experiments.rem_derivative_check(_TANH_MODEL, 0.5, v, seed=0)),
    ("EmpiricalScore B", "1 <= B < inf", (0,), lambda v: _SCORE(np.zeros((v, 8)), 0.5)),
    ("draw_indices k", "1 <= k < inf", (0,),
     lambda v: _SCORE.draw_indices(np.zeros((2, 8)), 0.5, v, np.random.default_rng(0))),
    ("SampleStream n", "1 <= n <= 1e+07", (0, model_mod.MAX_SAMPLES + 1),
     lambda v: model_mod.SampleStream(_TANH_MODEL, v, 0)),
    ("collapse-sweep --beta-points", "1 <= --beta-points < inf", (0,),
     ["collapse-sweep", "--beta-points", None, "--activations", "tanh"]),
    ("exp-collapse --n-data", "2 <= n <= 1e+07", (1,),
     ["exp-collapse", "--d", "8", "--p", "4", "--n-data", None]),
    # checked with the other counts, before the theory
    ("exp-speciation --n-data", "1 <= n <= 1e+07", (0,),
     ["exp-speciation", "--d", "8", "--p", "4", "--n-data", None]),
]


@pytest.mark.parametrize("interval, value, call", [
    pytest.param(interval, value, call, id=f"{label} {value}")
    for label, interval, values, call in _COUNTS for value in values])
def test_counts_are_refused_outside_their_range(monkeypatch, tmp_path, capsys,
                                                interval, value, call):
    # refused with the one message, before any solve, quadrature, draw or
    # kernel pass and without a RuntimeWarning (an error under this suite's
    # settings)
    for module, name in ((collapse, "f_rs"), (collapse, "_mp_roots"), (collapse, "_brent_root"),
                         (collapse, "collapse_time"), (speciation, "_rng"),
                         (speciation, "GammaFunctions"), (experiments, "_rng"),
                         (experiments, "log_partitions"), (experiments, "EmpiricalScore"),
                         (diffusion, "_sweep"), (diffusion, "_Tile"),
                         (quadrature, "_cached_nodes"), (cli, "sample_dataset"),
                         (cli, "SampleStream")):
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: pytest.fail(_name))
    message = f"^need .+ with {re.escape(interval)}, got {re.escape(str(value))}$"
    if isinstance(call, list):  # a command: exit 2 and no output
        out = tmp_path / "out"
        argv = [str(value) if arg is None else arg for arg in call]
        assert cli.main([*argv, "--output-dir", str(out)]) == cli.EXIT_CONFIG
        assert re.match(message, json.loads(capsys.readouterr().err)["message"])
        assert not out.exists()
    else:
        with pytest.raises(ValueError, match=message):
            call(value)


def test_a_quadrature_order_must_be_an_integer(monkeypatch):
    # a float order was rounded down to the next rule (96.7 to 96)
    monkeypatch.setattr(quadrature, "_cached_nodes", lambda n: pytest.fail("built"))
    for n in (96.7, 2.5, 3.0):
        with pytest.raises(TypeError, match="integer"):
            quadrature.std_normal_nodes(n)
    monkeypatch.undo()
    assert quadrature.std_normal_nodes(np.int64(8))[0].shape == (8,)


@pytest.mark.parametrize("m, rho", [(1e160, 1.0), (1.0, 1e300), (1e154, 1e154)])
def test_theory_params_refuse_a_scale_that_overflows(m, rho):
    # rho (m^2 + rho) past the float range: the config's rule, on a
    # hand-built record, so that no solve meets it as NaN or overflow
    with pytest.raises(ValueError, match=r"^need rho \(m\^2 \+ rho\) with -inf < "
                                         r"rho \(m\^2 \+ rho\) < inf, got inf$"):
        TheoryParams(m, rho, 0.5, _TANH)
    TheoryParams(1e76, 1e76, 0.5, _TANH)


@pytest.mark.parametrize("rho1, rho_star_sq, name", [
    (math.nan, 0.1, "rho1"), (math.inf, 0.1, "rho1"), (0.5, -0.1, "rho_star_sq"),
    (0.5, math.nan, "rho_star_sq"), (0.5, math.inf, "rho_star_sq")])
def test_gep_constants_are_held_to_their_range(rho1, rho_star_sq, name):
    with pytest.raises(ValueError, match=f"^need {name} with "):
        speciation.GepConstants(rho1, rho_star_sq)
    speciation.GepConstants(-0.5, 0.0)
