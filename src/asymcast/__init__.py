"""Forecasting under asymmetric error costs.

Loss families, asymmetry-aware estimators, a model library with
cost-sensitive selection of its best entry, and ex-post markdown
correction.

Log records go to the ``asymcast`` logger and its children. A
``NullHandler`` keeps them off stderr until the application configures
logging.
"""

import logging

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .losses import CostSpec, eval_loss, eval_mean, grad_loss, tau_from_weights

__all__ = [
    "__version__",
    "CostSpec",
    "eval_loss",
    "eval_mean",
    "grad_loss",
    "tau_from_weights",
]
