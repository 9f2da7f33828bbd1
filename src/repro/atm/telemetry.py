"""Trace recording for transient simulations and long-running experiments.

:class:`TraceRecorder` is a light column store: declare the column names
once, append one row per sample, and read back numpy arrays for analysis.
Keeping telemetry out of the simulators' hot paths (they take a recorder
optionally) keeps the steady-state solver allocation-free.

Storage is a single preallocated ``(capacity, n_columns)`` float64 array
grown by amortized doubling, so ``record`` is O(n_columns) and ``column``
is a single slice-copy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError

#: Rows allocated up front; doubles on demand.
_INITIAL_CAPACITY = 64


class TraceRecorder:
    """Append-only columnar trace backed by a growable numpy array."""

    def __init__(self, columns: Sequence[str]):
        if not columns:
            raise ConfigurationError("a trace needs at least one column")
        if len(set(columns)) != len(columns):
            raise ConfigurationError("trace column names must be unique")
        self._columns = tuple(columns)
        self._index = {name: i for i, name in enumerate(self._columns)}
        self._data = np.empty((_INITIAL_CAPACITY, len(self._columns)))
        self._size = 0

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        doubled = np.empty((2 * self._data.shape[0], self._data.shape[1]))
        doubled[: self._size] = self._data[: self._size]
        self._data = doubled

    def record(self, **values: float) -> None:
        """Append one sample; every declared column must be provided."""
        if len(values) != len(self._columns) or set(values) != set(self._columns):
            raise ConfigurationError(
                f"expected exactly columns {self._columns}, got {tuple(values)}"
            )
        if self._size == self._data.shape[0]:
            self._grow()
        row = self._data[self._size]
        for name, column_index in self._index.items():
            row[column_index] = float(values[name])
        self._size += 1

    def column(self, name: str) -> np.ndarray:
        """All samples of one column as a (copied) numpy array."""
        if name not in self._index:
            raise ConfigurationError(
                f"unknown column {name!r}; trace has {self._columns}"
            )
        return self._data[: self._size, self._index[name]].copy()

    def summary(self, name: str) -> dict[str, float]:
        """Min / max / mean / p50 / p95 / p99 of one column (empty traces raise)."""
        if name not in self._index:
            raise ConfigurationError(
                f"unknown column {name!r}; trace has {self._columns}"
            )
        if self._size == 0:
            raise ConfigurationError("trace is empty")
        data = self._data[: self._size, self._index[name]]
        return {
            "min": float(data.min()),
            "max": float(data.max()),
            "mean": float(data.mean()),
            "p50": float(np.percentile(data, 50.0)),
            "p95": float(np.percentile(data, 95.0)),
            "p99": float(np.percentile(data, 99.0)),
        }
