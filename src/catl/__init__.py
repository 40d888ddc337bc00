"""CaTL+ tooling: parsing, monitoring, normalization, repair, and learned
multi-agent communication/control policies."""

__version__ = "0.1.0"

from .formulas import (  # noqa: F401
    Capability,
    HalfPlane,
    InRegion,
    InnerFormula,
    OuterFormula,
    SpecError,
    Task,
    TimedTask,
    capability_vector,
    horizon,
    print_formula,
)
from .geometry import Region  # noqa: F401
from .monitor import (  # noqa: F401
    CLASSICAL,
    SMOOTH,
    RobustnessConfig,
    count,
    inner_rho,
    inner_sat,
    outer_rho,
    outer_sat,
)
from .parsing import parse_inner, parse_spec  # noqa: F401
from .trajectories import IndividualTrajectory, TeamMember, TeamTrajectory  # noqa: F401
