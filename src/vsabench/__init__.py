"""MAP hypervector algebra, LSH feature encoding, invertible domain mappings,
cyclic/adversarial losses, and a synthetic semantic-flipping benchmark."""

from .bench import (
    BenchConfig,
    BenchReport,
    DomainSpec,
    SceneSpec,
    encode_scene,
    materialize,
    measure_recovery,
    run_sweep,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    InvalidArgumentError,
    InvalidStateError,
    VsabenchError,
    VsafError,
)
from .hv import bind, bundle, cosine_similarity, random_hypervector
from .losses import LossConfig, gan_loss_hinge, gan_loss_nll, total_loss, vsa_cyclic_loss
from .lsh import LshProjector, new_projector, project, project_batch
from .mapping import (
    HypervectorMapping,
    apply_mapping,
    build_ground_truth_mapping,
    estimate_mapping_paired,
    random_mapping,
)
from .memory import ItemMemory
from .patches import PatchFeatureSet, PatchSpec, assemble_patches
from .vsaf import FeatureMapSet, feature_map_set, read_feature_file, write_feature_file

__version__ = "0.1.0"
