"""Resonator-aided QND measurement and conditional spin squeezing.

A Python package reproducing the full physics and analysis chain of
dispersive collective-spin measurement at desk scale: cavity/atom
coupling constants, stochastic pulse-level measurement records,
conditional spin noise, squeezing parameters, and fundamental limits.
Each part is imported from its module, e.g. qndspin.cavity or
qndspin.measurement; the package itself imports none of them.
"""

__version__ = "0.1.0"
