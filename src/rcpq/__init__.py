"""rcpq: rotate-clip-partition weight quantization at desk scale.

The pipeline fuses a (randomized) Hadamard rotation into a weight, grid
searches per-group clip logits on calibration activations, quantizes each
group with a learnable non-uniform 2-bit partitioning, and serializes the
packed codes plus their per-group dequantization tables into the RCPQ
container, where a LUT-decoding GEMV consumes them. Statistics utilities
quantify why rotation makes extreme weight quantization harder (it raises
the kurtosis of flat weight groups), and a toy distillation loop trains the
quantizer parameters end to end.
"""

import os as _os

# Worker cap: effective when rcpq is imported before numpy loads its BLAS.
if "RCP_THREADS" in _os.environ:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["RCP_THREADS"])

from .core import GroupLayout, load_npy, make_rng, save_npy
from .calib import ClipSearchConfig, ClipSearchResult, grid_search_clip, ldp_init
from .gemv import GemvTask, bench_gemv, dense_oracle, gemv_fast, gemv_ref
from .ldp import (
    LdpParams,
    Nf3Params,
    derive_grids,
    fake_quant,
    grads,
    nf3_fake_quant,
)
from .pack import (
    RcpqContainer,
    build_lut,
    pack_activation_codes,
    pack_weight_codes,
    read_rcpq,
    unpack_weight_codes,
    write_rcpq,
)
from .pipeline import quantize_layer
from .qat import DistillConfig, ToyModelSpec, grad_check, invariance_check, train_toy
from .rotation import apply_online, fuse, hadamard, randomized_hadamard
from .stats import excess_kurtosis, groupwise_kurtosis, rotation_kurtosis_mc
from .uniform import quant_act_per_token

__version__ = "0.1.0"

# Exactly the names README, demos/ and perfbench/ import from the top level
# (tests/test_public_api.py checks this); the rest stay public in their modules.
__all__ = [
    "GroupLayout", "load_npy", "make_rng", "save_npy",
    "ClipSearchConfig", "ClipSearchResult", "grid_search_clip", "ldp_init",
    "GemvTask", "bench_gemv", "dense_oracle", "gemv_fast", "gemv_ref",
    "LdpParams", "Nf3Params", "derive_grids", "fake_quant", "grads", "nf3_fake_quant",
    "RcpqContainer", "build_lut", "pack_activation_codes", "pack_weight_codes",
    "read_rcpq", "unpack_weight_codes", "write_rcpq",
    "quantize_layer",
    "DistillConfig", "ToyModelSpec", "grad_check", "invariance_check", "train_toy",
    "apply_online", "fuse", "hadamard", "randomized_hadamard",
    "excess_kurtosis", "groupwise_kurtosis", "rotation_kurtosis_mc",
    "quant_act_per_token",
]
