"""Quantify the worst-case throughput lost when multi-dimensional block
resource limits are compressed into a low-dimensional gas measure."""

from .approx import (
    ApproxReport,
    approximability,
    approximability_oracle,
    build_game,
)
from .factorize import (
    Factorization,
    FactorReport,
    alternating_factorization,
    factor_loss,
    kdim_represents,
    partition_to_factorization,
)
from .hist import HistReport, hist_loss, hist_loss_range, hist_strategy
from .lpcore import (
    GameSolution,
    LinearProgram,
    LPResult,
    solve_lp,
    solve_zero_sum,
    verify_equilibrium,
)
from .model import (
    GasMeasure,
    ResourceInstance,
    SizeReport,
    gas_of,
    instance_from_arrays,
    is_feasible,
    max_block_size,
    minimal_gas_measure,
    represents,
    validate_instance,
)
from .partition import (
    EcpInstance,
    PartitionPlan,
    generate_ecp,
    optimal_partition_exact,
    optimal_partition_greedy,
    partition_loss,
)

__version__ = "0.1.0"
