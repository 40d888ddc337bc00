"""CaTL+ tooling: parsing, monitoring, normalization, repair, and learned
multi-agent communication/control policies."""

__version__ = "0.1.0"

from .formulas import (  # noqa: F401
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
from .monitor import count, inner_rho, inner_sat, outer_rho, outer_sat  # noqa: F401
from .parsing import parse_inner, parse_spec  # noqa: F401
from .trajectories import IndividualTrajectory, TeamMember, TeamTrajectory  # noqa: F401
