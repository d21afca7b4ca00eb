"""Deployment configuration of the baseline protocols (the 2f + 1 family)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.quorum import DeploymentConfig


@dataclass(frozen=True)
class BftConfig(DeploymentConfig):
    """Deployment parameters shared by the baseline protocols."""

    view_change_timeout: float = 0.5
    pipeline_depth: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be positive")


__all__ = ["BftConfig"]
