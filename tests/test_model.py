"""Model config, assembly, naming, checkpoint format, roll equivariance."""

import hashlib
import struct

import numpy as np
import pytest

from karina import engine as E
from karina.model import (
    CHECKPOINT_MAGIC,
    KarinaModel,
    ModelConfig,
    ModelError,
    build,
    load_checkpoint,
    save_checkpoint,
)


def toy_config(**kw):
    base = dict(
        in_channels=4,
        out_channels=4,
        stage_dims=(8, 16),
        depths=(1, 1),
        stem_kernel=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def expected_param_count(cfg, block_kernel=7):
    d = list(cfg.stage_dims)
    n = cfg.in_channels * d[0] * cfg.stem_kernel ** 2 + d[0] + 2 * d[0]
    prev = d[0]
    for dim, depth in zip(d, cfg.depths):
        if dim != prev:
            n += 2 * prev + prev * dim * 9 + dim
        per = dim * block_kernel ** 2 + dim
        if cfg.se_enabled:
            h = dim // cfg.reduction_ratio
            per += h * dim + h + dim * h + dim
        per += 2 * dim
        per += dim * 4 * dim + 4 * dim + 4 * dim * dim + dim
        per += dim
        n += per * depth
        prev = dim
    n += d[-1] * d[-1] * 9 + d[-1]
    n += d[-1] * cfg.out_channels + cfg.out_channels
    return n


def flip_first_extent_bit(path, bit):
    """XOR one bit into the first extent of a checkpoint's first
    parameter, stem.conv.weight."""
    raw = bytearray(path.read_bytes())
    (cfg_len,) = struct.unpack_from("<I", raw, 8)
    (name_len,) = struct.unpack_from("<I", raw, 16 + cfg_len)
    assert raw[20 + cfg_len:20 + cfg_len + name_len] == b"stem.conv.weight"
    at = 20 + cfg_len + name_len + 4
    (extent,) = struct.unpack_from("<I", raw, at)
    struct.pack_into("<I", raw, at, extent ^ (1 << bit))
    path.write_bytes(bytes(raw))


class TestModelConfig:
    def test_defaults_validate(self):
        ModelConfig()

    @pytest.mark.parametrize("kw,fragment", [
        (dict(in_channels=0), "in_channels"),
        (dict(out_channels=-1), "out_channels"),
        (dict(stage_dims=()), "stage_dims"),
        (dict(depths=(1,)), "depths"),
        (dict(depths=(0, 1)), "block"),
        (dict(stem_kernel=4), "stem_kernel"),
        (dict(padding_mode="wrap"), "padding mode"),
        (dict(reduction_ratio=3), "reduction_ratio"),
        (dict(drop_path_rate=1.0), "drop_path_rate"),
        (dict(layer_scale_init=-0.1), "layer_scale_init"),
    ])
    def test_each_invalid_field_named(self, kw, fragment):
        with pytest.raises(Exception, match=fragment):
            toy_config(**kw)

    def test_text_round_trip_exact(self):
        cfg = toy_config(layer_scale_init=1e-6, drop_path_rate=0.1)
        text = cfg.to_text()
        assert ModelConfig.from_text(text) == cfg
        assert ModelConfig.from_text(text).to_text() == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ModelError, match="unknown config key"):
            ModelConfig.from_text("stem_size=3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ModelError, match="key=value"):
            ModelConfig.from_text("just words\n")

    def test_version_1_header_text_still_parses(self):
        # the header text .krna version 1 files carry, written out literally
        text = (
            "depths=1,1\ndrop_path_rate=0.0\nin_channels=4\nlayer_scale_init=1e-06\n"
            "out_channels=4\npadding_mode=geocyclic\nreduction_ratio=4\n"
            "se_enabled=true\nstage_dims=8,16\nstem_kernel=3\n"
        )
        cfg = ModelConfig.from_text(text)
        assert cfg == toy_config()
        assert cfg.to_text() == text


class TestBuild:
    def test_parameter_paths_for_toy_model(self):
        m = build(toy_config(), seed=3)
        names = [n for n, _ in m.named_parameters()]
        assert names[0] == "stem.conv.weight"
        assert "stem.norm.gamma" in names
        assert "stages.0.blocks.0.dwconv.weight" in names
        assert "stages.0.blocks.0.se.fc1_weight" in names
        assert "stages.1.transition.norm.gamma" in names
        assert "stages.1.transition.conv.weight" in names
        assert "stages.1.blocks.0.pwconv2.bias" in names
        assert "final.weight" in names
        assert names[-1] == "head.bias"
        assert len(names) == len(set(names))

    def test_param_count_matches_closed_form(self):
        for cfg in (toy_config(), toy_config(se_enabled=False),
                    toy_config(stage_dims=(8, 8), depths=(2, 1)),
                    ModelConfig(in_channels=7, out_channels=5,
                                stage_dims=(8, 12, 24), depths=(1, 2, 1),
                                reduction_ratio=4)):
            m = build(cfg, seed=0)
            assert m.param_count() == expected_param_count(cfg), cfg

    def test_no_transition_when_width_constant(self):
        m = build(toy_config(stage_dims=(8, 8), depths=(1, 1)), seed=0)
        assert m.stages[1].transition is None

    def test_same_seed_same_weights(self):
        a = build(toy_config(), seed=11)
        b = build(toy_config(), seed=11)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = build(toy_config(), seed=11)
        b = build(toy_config(), seed=12)
        assert not np.array_equal(a.stem.conv.weight.data, b.stem.conv.weight.data)

    def test_init_statistics(self):
        m = build(toy_config(layer_scale_init=1e-6), seed=0)
        for name, p in m.named_parameters():
            if name.endswith("norm.gamma"):
                assert np.all(p.data == 1.0)
            elif name.endswith(".gamma"):
                assert np.all(p.data == np.float32(1e-6))
            elif name.endswith("bias") or name.endswith("beta"):
                assert np.all(p.data == 0.0)
            else:
                assert np.abs(p.data).max() <= 0.04 + 1e-7


class TestForward:
    def setup_method(self):
        self.rng = np.random.default_rng(443)
        self.model = build(toy_config(), seed=7)

    def test_output_shape(self):
        x = self.rng.standard_normal((2, 4, 8, 16)).astype(np.float32)
        y = self.model.forward(x)
        assert y.data.shape == (2, 4, 8, 16)

    def test_rank3_input(self):
        # one layout: a (C, H, W) input is not a batch of one
        x = self.rng.standard_normal((4, 8, 16)).astype(np.float32)
        with pytest.raises(ModelError, match=r"\(B,C,H,W\)"):
            self.model.forward(x)

    def test_channel_mismatch_rejected(self):
        x = self.rng.standard_normal((2, 5, 8, 16)).astype(np.float32)
        with pytest.raises(ModelError, match="channels"):
            self.model.forward(x)

    def test_eval_mode_records_no_graph(self):
        x = self.rng.standard_normal((1, 4, 8, 16)).astype(np.float32)
        with E.no_grad():
            assert self.model.mode == "eval"
            y = self.model.forward(x)
        assert not y.requires_grad

    def test_train_mode_records(self):
        x = self.rng.standard_normal((1, 4, 8, 16)).astype(np.float32)
        assert self.model.mode == "train"
        y = self.model.forward(x)
        assert y.requires_grad

    def test_forward_deterministic_in_eval(self):
        x = self.rng.standard_normal((1, 4, 8, 16)).astype(np.float32)
        with E.no_grad():
            a = self.model.forward(x).data
            b = self.model.forward(x).data
        assert np.array_equal(a, b)


class TestDropPathDraw:
    """A recorded forward draws the whole step's drop factors at once;
    inference draws none."""

    def test_recorded_forward_draws_blocks_times_batch(self):
        m = build(toy_config(depths=(2, 1), drop_path_rate=0.1), seed=3)
        x = np.random.default_rng(7).standard_normal((3, 4, 8, 16)).astype(np.float32)
        before = m._droppath_rng.bit_generator.state
        m.forward(x)
        replay = np.random.default_rng()
        replay.bit_generator.state = before
        replay.random(sum(m.config.depths) * x.shape[0])   # 3 blocks x batch 3
        assert m._droppath_rng.bit_generator.state == replay.bit_generator.state

    def test_no_grad_forward_draws_nothing(self):
        m = build(toy_config(depths=(2, 1), drop_path_rate=0.1), seed=3)
        x = np.random.default_rng(7).standard_normal((3, 4, 8, 16)).astype(np.float32)
        before = m._droppath_rng.bit_generator.state
        with E.no_grad():
            m.forward(x)
        assert m._droppath_rng.bit_generator.state == before


class TestWholeModelRollEquivariance:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_shift_bit_exact(self, dtype):
        m = build(toy_config(), seed=5, dtype=dtype)
        rng = np.random.default_rng(19)
        x = rng.standard_normal((1, 4, 8, 16)).astype(dtype)
        with E.no_grad():
            base = m.forward(x).data
            for s in range(16):
                rolled = m.forward(np.roll(x, s, axis=-1)).data
                assert np.array_equal(rolled, np.roll(base, s, axis=-1)), f"shift {s}"

    def test_zero_padding_model_is_not_equivariant(self):
        m = build(toy_config(padding_mode="zero"), seed=5)
        rng = np.random.default_rng(19)
        x = rng.standard_normal((1, 4, 8, 16)).astype(np.float32)
        with E.no_grad():
            base = m.forward(x).data
            rolled = m.forward(np.roll(x, 3, axis=-1)).data
        assert not np.array_equal(rolled, np.roll(base, 3, axis=-1))


class TestToyModelGradients:
    def test_sampled_grad_check(self):
        m = build(toy_config(layer_scale_init=0.2), seed=2, dtype=np.float64)
        rng = np.random.default_rng(23)
        for p in m.parameters():
            p.data[:] = rng.standard_normal(p.data.shape) * 0.3
        x = rng.standard_normal((1, 4, 8, 16))
        target = rng.standard_normal((1, 4, 8, 16))

        def fn():
            d = E.sub(m.forward(x), E.Tensor(target))
            return E.mean_all(E.mul(d, d))

        err = E.grad_check(fn, m.parameters(), h=1e-5, rng=rng, sample=1)
        assert err < 1e-4


class TestCheckpoint:
    def setup_method(self):
        self.rng = np.random.default_rng(467)

    def test_round_trip_bit_exact(self, tmp_path):
        m = build(toy_config(), seed=9)
        for p in m.parameters():
            p.data[:] = self.rng.standard_normal(p.data.shape).astype(np.float32)
        path = tmp_path / "model.krna"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.config == m.config
        for (na, pa), (nb, pb) in zip(m.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_load_draws_stochastic_depth_from_its_seed(self, tmp_path):
        # a loaded model's recorded forward drops the blocks the built one does
        config = toy_config(depths=(2, 1), drop_path_rate=0.5, layer_scale_init=1.0)
        x = self.rng.standard_normal((4, 4, 8, 16)).astype(np.float32)
        path = tmp_path / "model.krna"
        for seed in (0, 5):
            built = build(config, seed=seed)
            save_checkpoint(built, path)
            want = built.forward(x).data.tobytes()
            assert load_checkpoint(path, seed=seed).forward(x).data.tobytes() == want
        # seed 5's weights loaded with the default seed draw seed 0's factors
        assert load_checkpoint(path).forward(x).data.tobytes() != want

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.krna"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.krna"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 99) + b"\x00" * 16)
        with pytest.raises(ModelError, match="version"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        m = build(toy_config(), seed=9)
        path = tmp_path / "model.krna"
        save_checkpoint(m, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) - 10])
        with pytest.raises(ModelError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = build(toy_config(), seed=9)
        path = tmp_path / "model.krna"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelError, match="trailing"):
            load_checkpoint(path)

    def test_repeated_parameter_name_rejected(self, tmp_path):
        cfg = toy_config().to_text().encode("utf-8")
        # name "a", rank 1, extent 1, one float32
        record = struct.pack("<I", 1) + b"a" + struct.pack("<2If", 1, 1, 0.5)
        path = tmp_path / "bad.krna"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<2I", 1, len(cfg)) + cfg
                         + struct.pack("<I", 2) + record + record)
        with pytest.raises(ModelError, match="repeats parameter name 'a'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"in_channels=x\n", b"stage_dims=\n", b"padding_mode=geo\xffcyclic\n",
        b"padding_mode=geocyclia\n",
    ])
    def test_corrupt_header_is_model_error(self, tmp_path, header):
        path = tmp_path / "bad.krna"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1)
                         + struct.pack("<I", len(header)) + header)
        with pytest.raises(ModelError):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected_by_name(self, tmp_path):
        m = build(toy_config(), seed=9)
        path = tmp_path / "model.krna"
        save_checkpoint(m, path)
        # the writer refuses NaN, so patch it into head.bias[1] on disk:
        # name, rank 1, one extent, then the float32 payload
        raw = bytearray(path.read_bytes())
        at = raw.index(b"head.bias") + len(b"head.bias") + 8 + 4
        struct.pack_into("<f", raw, at, np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelError, match="head.bias"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_refused_by_the_writer(self, tmp_path, bad):
        m = build(toy_config(), seed=9)
        m.head.bias.data[1] = bad
        path = tmp_path / "model.krna"
        with pytest.raises(ModelError, match="head.bias data holds a non-finite value"):
            save_checkpoint(m, path)
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_extent_rejected_before_read(self, tmp_path):
        m = build(toy_config(), seed=9)
        path = tmp_path / "model.krna"
        save_checkpoint(m, path)
        flip_first_extent_bit(path, 27)
        with pytest.raises(ModelError, match="stem.conv.weight data: needs"):
            load_checkpoint(path)

    def test_toy_checkpoint_bytes_pinned(self, tmp_path):
        # checkpoint format version 1, byte for byte
        m = build(toy_config(), seed=0)
        path = tmp_path / "model.krna"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        assert len(blob) == 33865
        assert hashlib.sha256(blob).hexdigest() == (
            "c84b27f41484bbbac4c987264a9b3513c2c0be4e109c0dda1441fefe5b2a3152"
        )
