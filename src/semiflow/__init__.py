"""semiflow: desk-scale numerical checks for strongly-continuous-in-windows
semigroups, their generators, and transport flows on metric graphs.

The package provides uniform-grid function spaces with compact-window
seminorm families, concrete first- and second-order model generators with
exact resolvents, semigroup builders (exact translation flows, Euler powers
of resolvents, Laplace-transform cross-checks), certificate-style generation
checks of Lumer-Phillips type, and weighted directed graph transport flows
with vertex redistribution solved both by characteristics and by an upwind
scheme.
"""

from ._kernels import damped_cumulative_integral
from .grid import Grid, GridFunction, differentiate, window_sup
from .seminorms import (CompactSeminormFamily, MixedSeminorm,
                        WindowOrientation, eval_mixed, eval_pn,
                        seminorm_ladder)
from .operators import (Generator, ResolventUnavailableError,
                        laplacian_generator, left_shift_generator,
                        resolvent_shift, right_translation_generator,
                        right_translation_resolvent, upwind_discretize)
from .samples import (plateau_ramp, probe_functions, sample_functions,
                      smooth_bump)
from .semigroups import (Semigroup, euler_apply, laplace_resolvent,
                         orbit_integral_residual, right_translation_semigroup,
                         shift_semigroup)
from .generation import (CheckReport, Witness, check_bi_dissipative,
                         check_hy_powers, check_resolvent_contraction,
                         lumer_phillips_verdict, subdifferential_test)
from .network import (Edge, EdgeState, Network, ValidationError,
                      build_adjacency, defect_budget, initial_state,
                      load_network, make_network, network_generation_verdict,
                      network_resolvent, network_semigroup,
                      random_flow_network, resolvent_defect_norm,
                      sample_states, simulate_flow, step_characteristics,
                      supnorm_l1_weighted, total_mass,
                      velocity_fixed_vector_residual, weighted_bc)

__version__ = "0.1.0"

__all__ = [
    "damped_cumulative_integral",
    "Grid", "GridFunction", "differentiate", "window_sup",
    "CompactSeminormFamily", "MixedSeminorm", "WindowOrientation",
    "eval_mixed", "eval_pn", "seminorm_ladder",
    "Generator", "ResolventUnavailableError",
    "laplacian_generator", "left_shift_generator", "resolvent_shift",
    "right_translation_generator", "right_translation_resolvent",
    "upwind_discretize",
    "plateau_ramp", "probe_functions", "sample_functions", "smooth_bump",
    "Semigroup", "euler_apply", "laplace_resolvent",
    "orbit_integral_residual", "right_translation_semigroup",
    "shift_semigroup",
    "CheckReport", "Witness", "check_bi_dissipative",
    "check_hy_powers", "check_resolvent_contraction",
    "lumer_phillips_verdict", "subdifferential_test",
    "Edge", "EdgeState", "Network", "ValidationError", "build_adjacency",
    "defect_budget", "initial_state", "load_network", "make_network",
    "network_generation_verdict", "network_resolvent", "network_semigroup",
    "random_flow_network", "resolvent_defect_norm", "sample_states",
    "simulate_flow", "step_characteristics", "supnorm_l1_weighted",
    "total_mass", "velocity_fixed_vector_residual", "weighted_bc",
    "__version__",
]
