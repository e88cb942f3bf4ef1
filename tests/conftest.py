"""Shared fixtures: small graphs, default hardware, paper workloads."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro import AcceleratorConfig
from repro.core.workload import GNNWorkload
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    erdos_renyi_graph,
    hub_thread_graph,
    molecular_graph,
)


@pytest.fixture(autouse=True)
def _default_sigterm() -> None:
    """Run every test with the default SIGTERM disposition.

    ``perfbench/tests`` drive ``run.main`` in this process, and it installs
    a ``sys.exit`` SIGTERM handler that outlives the test.  Pool workers
    forked under that handler can survive ``Pool.terminate()``, which then
    waits on them forever.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def hw() -> AcceleratorConfig:
    """Paper default: 512 PEs, 64 B RF, sufficient bandwidth."""
    return AcceleratorConfig(num_pes=512)


@pytest.fixture
def small_hw() -> AcceleratorConfig:
    """Tiny substrate for micro-sim cross-checks."""
    return AcceleratorConfig(num_pes=64, dist_bw=16, red_bw=16)


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """The paper's Fig. 3 example: 5 vertices, 11 edges (with self loops)."""
    edges = [
        (0, 0), (0, 1),
        (1, 1), (1, 2),
        (2, 1), (2, 2), (2, 4),
        (3, 0), (3, 3),
        (4, 0), (4, 4),
    ]
    return CSRGraph.from_edges(5, edges, name="fig3")


@pytest.fixture
def er_graph(rng) -> CSRGraph:
    return erdos_renyi_graph(rng, 40, 200, name="er40")


@pytest.fixture
def skewed_graph(rng) -> CSRGraph:
    """A hub-dominated graph (evil rows) for lock-step tests."""
    return hub_thread_graph(rng, 64, 160, num_hubs=2, name="hubs")


@pytest.fixture
def uniform_graph(rng) -> CSRGraph:
    """A degree-uniform molecular graph (no evil rows)."""
    return molecular_graph(rng, 60, 150, name="mol")


@pytest.fixture
def small_workload(er_graph) -> GNNWorkload:
    return GNNWorkload(er_graph, in_features=24, out_features=6, name="small")
