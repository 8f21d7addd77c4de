"""Discrete-event simulation of a computational grid.

This subpackage is the substrate that replaces the paper's physical grid
testbed.  It provides:

* :mod:`repro.gridsim.engine` — a deterministic discrete-event simulator with
  generator-coroutine processes (a minimal SimPy-like kernel built from
  scratch, as required by the reproduction protocol).
* :mod:`repro.gridsim.channels` — finite-capacity FIFO channels with blocking
  put/get (MPI-like message semantics) and counting resources.
* :mod:`repro.gridsim.resources` — processors with relative speeds and
  time-varying background load (the "non-dedicated" part of the grid).
* :mod:`repro.gridsim.load` — background-load models: constant, steps,
  random walk, Markov on/off, periodic, trace-driven, composite.
* :mod:`repro.gridsim.network` — links (latency + bandwidth) and topology.
* :mod:`repro.gridsim.grid` — the :class:`GridSystem` façade + snapshots.
* :mod:`repro.gridsim.spec` — declarative grid construction helpers.
"""

from repro.gridsim.channels import Channel, ChannelClosed, SimResource
from repro.gridsim.engine import (
    AllOf,
    AnyOf,
    Interrupt,
    Process,
    ProcessFailed,
    SimEvent,
    Simulator,
    Timeout,
)
from repro.gridsim.grid import GridSnapshot, GridSystem
from repro.gridsim.load import (
    CompositeLoad,
    ConstantLoad,
    LoadModel,
    MarkovOnOffLoad,
    PeriodicLoad,
    RandomWalkLoad,
    StepLoad,
    TraceLoad,
)
from repro.gridsim.network import Link, Topology, loopback_link
from repro.gridsim.resources import Processor
from repro.gridsim.spec import (
    GridSpec,
    SiteSpec,
    heterogeneous_grid,
    two_site_grid,
    uniform_grid,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "CompositeLoad",
    "ConstantLoad",
    "GridSnapshot",
    "GridSpec",
    "GridSystem",
    "Interrupt",
    "Link",
    "LoadModel",
    "MarkovOnOffLoad",
    "PeriodicLoad",
    "Process",
    "ProcessFailed",
    "Processor",
    "RandomWalkLoad",
    "SimEvent",
    "SimResource",
    "Simulator",
    "SiteSpec",
    "StepLoad",
    "Timeout",
    "Topology",
    "TraceLoad",
    "heterogeneous_grid",
    "loopback_link",
    "two_site_grid",
    "uniform_grid",
]
