"""Anisotropy analysis for 3D point patterns.

Directional K-functions with double-cone and cylinder structuring
elements, simulators for columnar and compressed-regular point process
models, and a replicated-pattern Monte Carlo isotropy test with power
estimation.
"""

from .geometry import (
    ConeParams,
    CylinderParams,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    as_direction,
    cone_contains,
    cone_volume,
    cylinder_contains,
    cylinder_volume,
    direction_set,
    equal_shape_link,
    equal_volume_link,
)
from .simulate import (
    BoxWindow,
    ModelSpec,
    PointPattern,
    compress,
    replicate_rng,
    simulate_campaign,
    simulate_matern,
    simulate_model,
    simulate_packing,
    simulate_plcpp,
    simulate_poisson,
    unit_cube,
)
from .estimate import (
    KProfile,
    conical_k,
    cylindrical_k,
    default_r_grid,
    intensity_sq_hat,
    k_profile,
    pooled_profile,
    translation_weight,
)
from .isotest import (
    IsotropyTestResult,
    TestConfig,
    power_curve_from_patterns,
    run_test,
    t_xy,
    t_z,
)

__version__ = "0.1.0"

__all__ = [
    "BoxWindow",
    "ConeParams",
    "CylinderParams",
    "IsotropyTestResult",
    "KProfile",
    "ModelSpec",
    "PointPattern",
    "TestConfig",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "as_direction",
    "compress",
    "cone_contains",
    "cone_volume",
    "conical_k",
    "cylinder_contains",
    "cylinder_volume",
    "cylindrical_k",
    "default_r_grid",
    "direction_set",
    "equal_shape_link",
    "equal_volume_link",
    "intensity_sq_hat",
    "k_profile",
    "pooled_profile",
    "power_curve_from_patterns",
    "replicate_rng",
    "run_test",
    "simulate_campaign",
    "simulate_matern",
    "simulate_model",
    "simulate_packing",
    "simulate_plcpp",
    "simulate_poisson",
    "t_xy",
    "t_z",
    "translation_weight",
    "unit_cube",
]
