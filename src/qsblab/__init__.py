"""Shared broadcasting of quantum states: constructions, metrics, bounds.

The package splits into layers: `hilbert` (layouts, states, Haar sampling),
`metrics` (fidelity and the randomized inequality sweep), `channels` (mixing
channels held as Stinespring tensors), `qsb` (broadcast instances as three
validated matrices, their constructions, the deficit chain, the cloning
baseline), `optimize` (variational frontier search) and `cli` (the qsblab
command).
"""

__version__ = "0.1.0"

from .errors import QsbError
from .hilbert import DensityMatrix, PureState, SpaceLayout, basis_state, random_pure
from .metrics import BoundCheck, fidelity, fidelity_pure, property_sweep
from .channels import depolarizing_channel, mix
from .qsb import (
    EpsilonChainReport,
    ProductApprox,
    QsbInstance,
    chain_constants,
    chain_verify,
    cloner_baseline,
    default_probe_states,
    epsilon_threshold,
    extract_product_approx,
    lambda_max_rank2,
    max_overlap_pair,
    measure_eps,
    overlap_lower_bound,
    perfect_qsb_construct,
    perturbed_perfect_instance,
    werner_cloner_construct,
)
from .optimize import (
    FrontierPoint,
    OptimizeConfig,
    frontier_sweep,
    optimize_qsb,
)

__all__ = [
    "QsbError",
    "SpaceLayout",
    "PureState",
    "DensityMatrix",
    "basis_state",
    "random_pure",
    "fidelity",
    "fidelity_pure",
    "BoundCheck",
    "property_sweep",
    "mix",
    "depolarizing_channel",
    "QsbInstance",
    "ProductApprox",
    "EpsilonChainReport",
    "perfect_qsb_construct",
    "perturbed_perfect_instance",
    "werner_cloner_construct",
    "measure_eps",
    "default_probe_states",
    "extract_product_approx",
    "overlap_lower_bound",
    "max_overlap_pair",
    "lambda_max_rank2",
    "cloner_baseline",
    "chain_constants",
    "chain_verify",
    "epsilon_threshold",
    "OptimizeConfig",
    "FrontierPoint",
    "optimize_qsb",
    "frontier_sweep",
]
