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

from .core import GroupLayout, load_npy, make_rng, matmul_ref, save_npy
from .calib import ClipSearchConfig, ClipSearchResult, grid_search_clip, ldp_init
from .gemv import GemvTask, bench_gemv, dense_oracle, gemv_fast, gemv_ref
from .ldp import (
    LdpGrids,
    LdpParams,
    Nf3Params,
    derive_grids,
    fake_quant,
    grads,
    nf3_fake_quant,
    normal_float_grid,
)
from .pack import (
    DequantLut,
    PackedActivations,
    PackedWeights,
    RcpqContainer,
    build_lut,
    pack_activation_codes,
    pack_weight_codes,
    read_rcpq,
    unpack_activation_codes,
    unpack_weight_codes,
    write_rcpq,
)
from .pipeline import quantize_layer
from .qat import DistillConfig, ToyModelSpec, cakld, estimate_alpha, grad_check, invariance_check, train_toy
from .rotation import apply_online, fuse, hadamard, randomized_hadamard
from .stats import excess_kurtosis, groupwise_kurtosis, qerr_vs_kurt, rotation_kurtosis_mc
from .uniform import ActQuantConfig, KvQuantConfig, quant_act_per_token, quant_asym, quant_kv_group

__version__ = "0.1.0"
