"""Motion polynomial factorization over dual quaternions and linkage synthesis."""

from .config import Config, DEFAULT_TOL
from .dualquat import (
    DualNumber,
    DualQuaternion,
    Pose,
    Quaternion,
    Rotation,
    Translation,
    act_on_point,
    classify_generator,
    generator_axes,
    generator_kinds,
    normalize_pose,
    pose_distance,
    projective_residual,
    study_form,
)
from .polyring import (
    DQPoly,
    MotionPolynomial,
    RealPoly,
    chain_product,
    max_real_factor,
    norm_poly,
    quadratic_factors,
    real_roots_complex,
    right_divide,
    root_clusters,
    validate_motion,
)
from .factorization import (
    Factorization,
    FactorizationReport,
    NoSolution,
    SearchSettings,
    SolutionFamily,
    UniqueSolution,
    all_factorizations,
    factor_bounded_with_multiplier,
    factor_generic,
    factor_quaternion,
    factor_with_backtracking,
    is_bounded,
    linear_zero,
    right_multiply_and_factor,
    solve_linear_factor,
)
from .synthesis import (
    BennettLinkage,
    FlipResult,
    bennett_flip,
    interpolate_three_poses,
    kempe_linkage_for_curve,
    six_bar_from_cubic,
    synthesize_bennett,
    translation_motion_from_curve,
)
from .linkage import (
    ConfigurationSample,
    Configurations,
    Joint,
    Link,
    LinkGraph,
    Linkage,
    assemble,
    export,
    forward_kinematics,
    import_linkage,
    rigidity_check,
    sample_configuration,
    trajectory,
)

__version__ = "0.1.0"
