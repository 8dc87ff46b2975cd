"""Reference objects the tests compare the package against."""

import numpy as np

from besovbnn.priors import DensityHandle


class FlatDensity(DensityHandle):
    """Improper constant density (log g = 0); for oracle comparisons only."""

    def log_pdf(self, t, out=None):
        zeros = np.zeros_like(np.asarray(t, dtype=float))
        if out is None:
            return zeros
        np.copyto(out, zeros)
        return out

    def grad_log_pdf(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))
