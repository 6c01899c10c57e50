"""Uniform point sets on partitioned probability spaces, with certified
worst-case integration error bounds and exhaustive finite-space
verification."""

from .bounds import BoundSet, bound_set
from .errors import (
    BoundViolationError,
    CoverError,
    EmptyCellError,
    EnumerationTooLargeError,
    InstanceFormatError,
    NonIntegerAllocationError,
    NonPositiveWeightError,
    NotUniformError,
    OutOfDomainError,
    OverlapError,
    QmcBoundsError,
    WeightSumError,
)
from .estimator import BoundReport, bound_report, qmc_estimate
from .funcmodel import (
    Affine,
    EssentialRange,
    FiniteTable,
    FunctionModel,
    GridRangeMode,
    PiecewiseConstant,
    Quadratic,
    Sinusoid,
)
from .instances import (
    Instance,
    instance_from_json,
    instance_to_json,
    load_instances,
    save_instances,
)
from .oracle import (
    MinimaxCertificate,
    VerificationVerdict,
    minimax_distance_finite,
    random_instance,
    small_exhaustive_suite,
    verify_bounds_exhaustive,
    verify_instances,
    worst_case_error,
    worst_uniform_error,
)
from .pointsets import (
    ConfigurationStream,
    UniformityReport,
    UniformPointSet,
    allocation,
    construct_uniform,
    enumerate_uniform,
    is_uniform,
    load_pointset,
    save_pointset,
)
from .spaces import (
    BoxCell,
    CubeSpace,
    FiniteCell,
    FiniteSpace,
    Partition,
    box,
    equal_partition_1d,
    interval,
    make_cube_space,
    make_finite_space,
    make_partition,
    partition_hash,
)

__version__ = "0.1.0"
