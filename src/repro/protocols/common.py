"""Deployment configuration of the baseline protocols (the 2f + 1 family)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.quorum import DeploymentConfig


@dataclass(frozen=True)
class BftConfig(DeploymentConfig):
    """Deployment parameters shared by the baseline protocols."""

    view_change_timeout: float = 0.5


__all__ = ["BftConfig"]
