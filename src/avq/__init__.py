"""avq: finite-dimensional toolkit for group actions on accessible
variables, spin operators, Born probabilities, measurement updates, and
classical inference comparisons."""

__all__ = ["born", "errors", "experiments", "groups", "hilbert",
           "inference", "measurement", "spin", "variables"]

__version__ = "0.1.0"
