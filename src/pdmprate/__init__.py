"""Simulation and adaptive estimation toolkit for deterministic-jump chains."""

from .basis import Basis
from .bench import (DiagnosticsReport, ExperimentConfig, ExperimentResult,
                    ExperimentRow, ReplicateResult, convergence_diagnostics,
                    replicate_seed, run_experiment, run_replicate, rows_to_csv,
                    tail_assumption_ok)
from .density import DensityFit, select_model
from .errors import (CapExceededError, ChainFormatError, ChainTooShortError,
                     ConfigError, EmptyModelSetError, InconsistentChainError,
                     PdmpError, StateRangeError)
from .jumprate import (denominator_grid, make_grid, rate_grid, risk_sweep,
                       threshold)
from .model import (Flow, JumpMap, Model, PowerRate, ShiftedQuadraticRate,
                    CustomRate, bacterial_model, tcp_model,
                    tcp_quadratic_model)
from .simulate import (GenericSampler, JumpChain, chain_from_text,
                       reconstruct_times, sample_next, simulate_chain)

__version__ = "0.1.0"
