"""Platform registry: create drivers by name.

The Benchmark Core resolves configured platform names through this
registry, which is also the extension point for third-party drivers
(the paper's "API that will enable third party developers to port our
benchmark to their graph processing platforms"): call
:func:`register_platform` with a new driver class.

The built-in drivers are named in a table and imported on first use,
so a run loads only the drivers it creates, and listing the names
loads none.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

from repro.core.cost import ClusterSpec
from repro.core.errors import ConfigurationError
from repro.core.platform_api import Platform

__all__ = [
    "available_platforms",
    "create_platform",
    "create_platform_fleet",
    "is_single_machine",
    "register_platform",
]

#: Built-in drivers: configuration name -> (module, class).
_BUILTINS: dict[str, tuple[str, str]] = {
    "giraph": ("repro.platforms.pregel.driver", "GiraphPlatform"),
    "mapreduce": ("repro.platforms.mapreduce.driver", "MapReducePlatform"),
    "graphx": ("repro.platforms.rddgraph.driver", "GraphXPlatform"),
    "neo4j": ("repro.platforms.graphdb.driver", "Neo4jPlatform"),
    "graphlab": ("repro.platforms.gas.driver", "GraphLabPlatform"),
    "virtuoso": ("repro.platforms.columnar.driver", "VirtuosoPlatform"),
    "medusa": ("repro.platforms.gpu.driver", "MedusaPlatform"),
    "stratosphere": ("repro.platforms.dataflow.driver", "StratospherePlatform"),
}

#: Factories by name: registered drivers, and built-ins once imported.
_REGISTRY: dict[str, Callable[..., Platform]] = {}


def register_platform(name: str, factory: Callable[..., Platform]) -> None:
    """Register a platform driver factory under a configuration name."""
    if not name:
        raise ConfigurationError("platform name must be non-empty")
    _REGISTRY[name] = factory


def available_platforms() -> list[str]:
    """Names of all registered platform drivers."""
    return sorted(_REGISTRY.keys() | _BUILTINS.keys())


def create_platform(name: str, cluster: ClusterSpec | None = None) -> Platform:
    """Instantiate a registered platform driver.

    ``cluster=None`` uses the driver's built-in default spec
    (single-machine platforms have one; cluster platforms require an
    explicit spec).
    """
    factory = _factory(name)
    try:
        return factory() if cluster is None else factory(cluster)
    except TypeError as exc:
        raise ConfigurationError(
            f"platform {name!r} requires an explicit cluster spec"
        ) from exc


def is_single_machine(name: str) -> bool:
    """Whether a registered platform runs on a single machine."""
    return bool(getattr(_factory(name), "single_machine", False))


def create_platform_fleet(
    distributed: ClusterSpec,
    overrides: dict[str, ClusterSpec] | None = None,
    names: list[str] | None = None,
) -> list[Platform]:
    """One driver per registered platform, with sensible specs.

    Cluster platforms get ``distributed``; single-machine platforms
    get their built-in default machine. ``overrides`` pins a specific
    spec per platform name (e.g. a scaled Neo4j machine).
    """
    overrides = overrides or {}
    fleet = []
    for name in names if names is not None else available_platforms():
        if name in overrides:
            fleet.append(create_platform(name, overrides[name]))
        elif is_single_machine(name):
            fleet.append(create_platform(name))
        else:
            fleet.append(create_platform(name, distributed))
    return fleet


def _factory(name: str) -> Callable[..., Platform]:
    """The factory registered under ``name``, importing a built-in."""
    if name not in _REGISTRY:
        if name not in _BUILTINS:
            raise ConfigurationError(
                f"unknown platform {name!r}; available: {available_platforms()}"
            )
        module, attribute = _BUILTINS[name]
        _REGISTRY[name] = getattr(import_module(module), attribute)
    return _REGISTRY[name]
