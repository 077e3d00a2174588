"""Shared scaffolding for the baseline systems (Section 1's alternatives).

The paper motivates 3V by rejecting three designs:

* **No coordination** (:mod:`repro.baselines.nocoord`) — fast but wrong;
* **Manual versioning** (:mod:`repro.baselines.manual`) — periodic version
  switches with a conservative safety delay, no termination detection;
* **Global synchronization** (:mod:`repro.baselines.twopc`) — distributed
  2PL + two-phase commit for every transaction.

Since the runtime refactor all of the machinery the baselines share —
mailbox consumer, local executor, hierarchical completion notices,
compensation routing — lives in :mod:`repro.runtime`; the names this
module historically exported are kept as aliases of the runtime classes.
:class:`BaselineSystem` *is* the plain runtime :class:`~repro.runtime.System`
running the default (single-version, uncoordinated)
:class:`~repro.runtime.plugin.ProtocolPlugin`, so the analysis and
benchmark code can treat any system — 3V included — through the same
surface: ``load`` / ``submit`` / ``run_until_quiet`` / ``history``.
"""

from __future__ import annotations

from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.runtime.system import System

__all__ = ["BaselineNode", "BaselinePlugin", "BaselineSystem"]

#: A baseline node is the shared runtime node.
BaselineNode = ProtocolNode

#: The default plugin already implements the "no protocol" semantics.
BaselinePlugin = ProtocolPlugin


class BaselineSystem(System):
    """Facade shared by the baseline implementations."""
