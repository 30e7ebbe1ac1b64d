"""One-qubit clock synchronization: simulator, protocol, and experiments."""

__version__ = "0.1.0"

from .qsim import (
    MeasurementOutcome,
    StateVector,
    basis_state,
    diagonal_phase,
    hadamard,
    indexed_phase,
    inverse_qft,
    measure,
    qft,
    z_phase,
)
from .clock import (
    ClockModel,
    ResourceLedger,
    TransitRecord,
    fixed_rate_query,
    handshake_simulate,
    make_world,
    tqh_oracle,
)
from .protocol import (
    ProtocolConfig,
    SyncEstimate,
    boosted_register_size,
    circular_distance,
    min_success_on_grid,
    photon_zero_probability,
    run_sync,
    success_probability_exact,
    within_precision,
)
from .tradeoff import (
    LowerBoundParams,
    TradeoffPoint,
    classical_estimate,
    nayak_wu_bound,
    simulate_rate_k_with_unit_rate,
    single_rate_state,
    tradeoff_sweep,
)
from .harness import SCENARIOS, ExperimentSpec, run
from .seeding import child_rng

__all__ = [
    "MeasurementOutcome",
    "StateVector",
    "basis_state",
    "diagonal_phase",
    "hadamard",
    "indexed_phase",
    "inverse_qft",
    "measure",
    "qft",
    "z_phase",
    "ClockModel",
    "ResourceLedger",
    "TransitRecord",
    "fixed_rate_query",
    "handshake_simulate",
    "make_world",
    "tqh_oracle",
    "ProtocolConfig",
    "SyncEstimate",
    "boosted_register_size",
    "circular_distance",
    "min_success_on_grid",
    "photon_zero_probability",
    "run_sync",
    "success_probability_exact",
    "within_precision",
    "LowerBoundParams",
    "TradeoffPoint",
    "classical_estimate",
    "nayak_wu_bound",
    "simulate_rate_k_with_unit_rate",
    "single_rate_state",
    "tradeoff_sweep",
    "SCENARIOS",
    "ExperimentSpec",
    "run",
    "child_rng",
    "__version__",
]
