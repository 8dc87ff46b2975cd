"""Bayesian ReLU-network nonparametric regression on Besov targets.

Subpackages: testbed (targets and data), design (architecture and prior
rules, condition checks, covering bounds), network (ReLU MLP and gradients),
priors (prior densities and the spike-and-slab sampler), vi (mean-field
variational inference), mh (Metropolis oracle), cli (experiment commands).
"""

from .design import (
    ArchSpec,
    ConditionReport,
    MixturePriorSpec,
    SmoothnessSpec,
    base_width,
    check_shrinkage_conditions,
    covering_bound,
    covering_bound_truncated,
    design_architecture,
    mixture_hyperparams,
)
from .network import NetworkParams, NetworkShape, forward, loglik_and_grad, truncate
from .testbed import (
    Dataset,
    TrueFunction,
    cantor_function,
    empirical_norm,
    eval_cantor,
    eval_log_singular,
    generate_dataset,
    log_singular_function,
)

__version__ = "0.1.0"
