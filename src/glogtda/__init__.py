"""Topological feature pipeline for 2D/3D grayscale volumes.

Volumes are filtered by a pair of convolution grades (Gaussian-smoothed
intensity and Laplacian-of-Gaussian response); the resulting two-parameter
sublevel module is approximated by barcodes along a grid of slope-1 lines,
rasterized into persistence images, and classified with a small MLP.
"""

from .bifiltration import (
    BiGradedField,
    compute_glog,
    slice_scalar_field,
    sup_distance,
    union_box,
)
from .cubical_persistence import (
    Bar,
    Barcode,
    bottleneck,
    betti_oracle,
    build_complex,
    component_count,
    compute_persistence,
)
from .errors import (
    DomainError,
    FormatError,
    GlogError,
    LengthError,
    NotFoundError,
    ParameterError,
    PreconditionError,
    ShapeError,
    UndefinedMetricError,
    UnsupportedFeatureError,
)
from .fibered import (
    FiberedBarcode,
    LineGrid,
    clip_bars,
    compute_fibered_barcode,
    make_line_grid,
)
from .kernels import (
    DiscreteKernel,
    KernelSpec,
    continuum_lipschitz_bound,
    convolve,
    default_radius,
    gaussian_kernel,
    lipschitz_constant,
    log_kernel,
)
from .learn import (
    MlpModel,
    TrainConfig,
    accuracy,
    auc,
    forward,
    init_model,
    load_checkpoint,
    model_dims_for,
    save_checkpoint,
    train,
)
from .stability_harness import (
    run_decomposition_suite,
    run_stability_suite,
)
from .vectorize import (
    FeatureVector,
    MpiConfig,
    build_features,
    compute_global_box,
    features_to_csv,
    read_feature_bin,
    render_mpi,
    render_segments,
    write_feature_bin,
)
from .volume_io import (
    Dataset,
    Volume,
    grayscale_convert,
    load_dataset,
    normalize,
    read_npy,
    read_npz,
    read_pgm,
    write_npy,
    write_npz,
)

__version__ = "0.1.0"
