"""Moving-horizon adaptation of recurrent neural-network plant models."""

from .models import (
    ModelSpec,
    ParamVector,
    init_params,
    param_count,
    simulate,
    window_loss_and_gradient,
)

__all__ = [
    "ModelSpec",
    "ParamVector",
    "init_params",
    "param_count",
    "simulate",
    "window_loss_and_gradient",
]
