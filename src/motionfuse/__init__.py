"""Multi-scale spatially-adaptive motion fusion for toy video synthesis.

The package is organized around small, independently testable layers:

* `tensor`    — numpy array substrate, deterministic counter-based RNG
* `ops`       — neural operators with hand-derived backward passes
* `fusion`    — per-pixel adaptive kernels, separable expansion, mask blending
* `losses`    — VAE / classification / consistency objectives with gradients
* `metrics`   — entropy-based generation quality scores
* `synthdata` — procedural shape-motion clip generator and SMV1 container
* `model`     — two-stream next-frame model wiring
* `training`  — alternating-phase trainer, rollout, classifier
* `gradcheck` — finite-difference verification of every backward pass
* `bench`     — dense-vs-separable benchmark harness
* `checkpoint`— TSVC checkpoints and PGM/PPM frame export
* `cli`       — command-line entry points
"""

from .fusion import (
    DenseKernelField,
    SeparableKernelField,
    adaptive_conv_forward,
    expand_kernel,
    fuse_pyramid_forward,
    kernel_param_count,
    mask_activation_forward,
    mask_blend_forward,
)
from .losses import GaussianParams, LossWeights
from .metrics import MetricsReport, inception_score, inter_entropy, mean_intra_entropy
from .model import ModelBundle, ModelConfig, build_model, forward_next_frame
from .synthdata import ClipSpec, VideoClip, difference_map, gen_clip, gen_dataset, load_dataset
from .tensor import SeededRng, split_seed
from .training import (
    OptimizerConfig,
    TrainConfig,
    Trainer,
    rollout,
    train_classifier,
)

__version__ = "0.1.0"
