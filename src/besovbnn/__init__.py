"""Bayesian ReLU-network nonparametric regression on Besov targets.

Subpackages: testbed (targets and data), design (architecture and prior
rules, condition checks, covering bounds), network (ReLU MLP and gradients),
priors (prior densities and the spike-and-slab sampler), vi (mean-field
variational inference), mh (Metropolis oracle), cli (experiment commands).
The package imports none of them, so each command loads only what it uses.
"""

__version__ = "0.1.0"

# The priors `priors.make_density` builds, offered by the CLI without loading it.
DENSITY_NAMES = ("mixture", "gauss", "laplace", "uniform-slab")
