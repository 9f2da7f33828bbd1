"""JSON persistence for characterization and deployment artifacts.

A vendor flow separates *measuring* a chip (slow, at test time) from
*using* the measurements (in the field), so the limit table and the
deployment configuration need durable, versioned on-disk forms.  Plain
JSON keeps them diffable and toolable.

Schema versioning: every document carries ``schema`` and ``kind`` fields;
loading rejects unknown kinds and newer schema versions with a clear
error instead of mis-parsing.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import ConfigurationError
from .limits import CoreLimits, LimitTable
from .stress_test import DeploymentConfig

#: Current schema version written by this library.
SCHEMA_VERSION = 1


def _check_header(document: object, expected_kind: str) -> None:
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"expected a {expected_kind!r} document, got a JSON "
            f"{type(document).__name__}"
        )
    kind = document.get("kind")
    if kind != expected_kind:
        raise ConfigurationError(
            f"expected a {expected_kind!r} document, got {kind!r}"
        )
    schema = document.get("schema")
    if not isinstance(schema, int) or schema > SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema version {schema!r} (this library reads "
            f"<= {SCHEMA_VERSION})"
        )


# -- limit tables ------------------------------------------------------------


def limit_table_to_dict(table: LimitTable) -> dict:
    """Serializable form of a limit table."""
    return {
        "kind": "limit_table",
        "schema": SCHEMA_VERSION,
        "cores": table.to_dict(),
    }


def limit_table_from_dict(document: dict) -> LimitTable:
    """Rebuild a limit table; validates structure and invariants."""
    _check_header(document, "limit_table")
    cores = document.get("cores")
    if not isinstance(cores, dict) or not cores:
        raise ConfigurationError("limit_table document has no cores")
    limits = {}
    for label, row in cores.items():
        try:
            limits[label] = CoreLimits(
                core_label=label,
                idle=int(row["idle"]),
                ubench=int(row["ubench"]),
                thread_normal=int(row["thread_normal"]),
                thread_worst=int(row["thread_worst"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed limit row for core {label!r}: {exc}"
            ) from exc
    return LimitTable(limits)


def save_limit_table(table: LimitTable, path: str | Path) -> Path:
    """Write a limit table to ``path`` as JSON; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(limit_table_to_dict(table), indent=2, sort_keys=True)
    )
    return target


def load_limit_table(path: str | Path) -> LimitTable:
    """Read a limit table previously written by :func:`save_limit_table`."""
    source = Path(path)
    if not source.exists():
        raise ConfigurationError(f"no limit table at {source}")
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read {source}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{source} is not valid JSON: {exc}") from exc
    return limit_table_from_dict(document)


# -- deployment configurations -------------------------------------------------


def deployment_to_dict(config: DeploymentConfig) -> dict:
    """Serializable form of a deployment configuration."""
    return {
        "kind": "deployment_config",
        "schema": SCHEMA_VERSION,
        "chip_id": config.chip_id,
        "rollback_steps": config.rollback_steps,
        "cores": {
            label: {
                "thread_worst_limit": d.thread_worst_limit,
                "validated_limit": d.validated_limit,
                "deployed_reduction": d.deployed_reduction,
                "survived_battery": d.survived_battery,
            }
            for label, d in config.cores.items()
        },
    }


def save_deployment(config: DeploymentConfig, path: str | Path) -> Path:
    """Write a deployment configuration to ``path``; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(deployment_to_dict(config), indent=2, sort_keys=True)
    )
    return target
