"""RL012 fixture: a function that only ``__all__`` names."""

__all__ = ["export_only_helper"]


def export_only_helper():
    return 46
