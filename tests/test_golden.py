"""Golden bits: conv outputs, conv gradients and a trained checkpoint.

The output, w-gradient and b-gradient hashes date from the per-branch
kernel that preceded the one batched matmul over a groups axis.  The
x-gradient hashes of the K > 1 cases date from the change that made dx
the forward contraction on the padded upstream gradient, and the
checkpoint hash from the float32 GELU in explicit arithmetic, which
made it the same at numpy's X86_V2 SIMD level.  A kernel rewrite that
moves any of them is not bit-preserving, and must say which values
moved and why.  The hashes are facts about numpy's bundled OpenBLAS on
x86-64 with its SkylakeX kernel: other kernels (Haswell, Sandybridge)
and other BLAS libraries may round a GEMM differently, so a mismatch
names the active core.
"""

import hashlib

import numpy as np
import pytest

from blas_helpers import openblas_core, run_at_x86_v2
from karina import cli
from karina import engine as E


def digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


# batch 4 at (Cin, Cout, groups, K, padded H, padded W); hashes of the
# output and of the x, w and b gradients
CONV_GOLDEN = {
    "dense_3x3": ((6, 8, 1, 3, 18, 34), (
        "7fec195b5b02010c", "bd3562a630a66808", "e076a12cf8431de4", "24790adfffaa8b58")),
    "pointwise_1x1": ((8, 32, 1, 1, 16, 32), (
        "0f1e194efdc7dc84", "87cd23f8793be7bf", "cc61093e5da15661", "2ce4faa9413f00f0")),
    "depthwise_7x7": ((8, 8, 8, 7, 22, 38), (
        "4c8bf1b305c7b255", "68ac3d7e7350e7b2", "1eda7798742d1eda", "a79a0031ec92c037")),
    "groups_2": ((6, 8, 2, 3, 10, 14), (
        "1bf471ee61c14df3", "34785ac094f5f725", "15c3124b5837156f", "03a98ac68ca38046")),
}


def conv_bits(cin, cout, groups, k, hp, wp):
    rng = np.random.default_rng(2024)
    x = E.Parameter(rng.standard_normal((4, cin, hp, wp)).astype(np.float32), "x")
    w = E.Parameter((rng.standard_normal((cout, cin // groups, k, k)) * 0.3)
                    .astype(np.float32), "w")
    b = E.Parameter(rng.standard_normal(cout).astype(np.float32), "b")
    y = E.conv2d_valid(x, w, b, groups=groups)
    probe = E.Tensor(rng.standard_normal(y.shape).astype(np.float32))
    E.backward(E.sum_all(E.mul(y, probe)))
    return tuple(digest(a) for a in (y.data, x.grad, w.grad, b.grad))


@pytest.mark.parametrize("case", sorted(CONV_GOLDEN))
def test_conv_float32_bits(case):
    shape, want = CONV_GOLDEN[case]
    assert conv_bits(*shape) == want, f"OpenBLAS core {openblas_core()}"


def test_one_epoch_checkpoint_bits(tmp_path):
    code = cli.main([
        "train", "--out", str(tmp_path), "--seed", "3",
        "--set", "model.stage_dims=4,8", "--set", "model.depths=1,1",
        "--set", "synth.n_lat=8", "--set", "synth.n_lon=16",
        "--set", "data.train_days=16", "--set", "data.test_days=4",
        "--set", "train.epochs=1", "--set", "train.batch_size=4",
    ])
    assert code == 0
    blob = (tmp_path / "checkpoint.krna").read_bytes()
    assert len(blob) == 11644
    assert hashlib.sha256(blob).hexdigest() == (
        "3591a37ddbb546d31a74a63a695ae61de900dac8db79d8d40213d0f60132a781"
    ), f"OpenBLAS core {openblas_core()}"


def one_epoch_checkpoint_sha256(out):
    """Train the pinned one-epoch run above into out; its checkpoint's sha256."""
    assert cli.main([
        "train", "--out", str(out), "--seed", "3",
        "--set", "model.stage_dims=4,8", "--set", "model.depths=1,1",
        "--set", "synth.n_lat=8", "--set", "synth.n_lon=16",
        "--set", "data.train_days=16", "--set", "data.test_days=4",
        "--set", "train.epochs=1", "--set", "train.batch_size=4",
    ]) == 0
    return hashlib.sha256((out / "checkpoint.krna").read_bytes()).hexdigest()


def test_one_epoch_checkpoint_bits_hold_at_numpy_x86_v2(tmp_path):
    """The checkpoint comes out the same with numpy's ufuncs on their
    X86_V2 loops as at the default level: GELU's float32 arithmetic is
    rounded the same whatever the vector width."""
    out = run_at_x86_v2("import pathlib\n"
                        "from test_golden import one_epoch_checkpoint_sha256\n"
                        f"print(one_epoch_checkpoint_sha256(pathlib.Path({str(tmp_path / 'v2')!r})))\n")
    if out is None:
        pytest.skip("numpy still dispatches above X86_V2 with those targets disabled")
    assert out.splitlines()[-1] == one_epoch_checkpoint_sha256(tmp_path / "default")
