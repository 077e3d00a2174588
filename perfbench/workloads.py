"""The benchmark's workloads: one 3V recording experiment each.

Every workload is an ``ExperimentSpec`` of fixed simulated duration, so one
experiment is a fixed-size batch of work.  Arrivals are open-loop Poisson
in simulated time, drawn from the experiment seed alone: the system under
test never changes when or what is submitted.  ``README.md`` in this
directory says why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import dataclasses
import random
import typing

#: The paper's commuting data-recording mix (16 updates, 8 inquiries and
#: 0.2 audits per simulated second) shared by the 8-node workloads.
_RECORDING_MIX = dict(update_rate=16.0, inquiry_rate=8.0, audit_rate=0.2)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``ExperimentSpec`` fields; ``seed`` is supplied per experiment.
    spec: typing.Mapping[str, typing.Any]
    #: Node crashes drawn from the seed (``FaultPlan`` crash events).
    crashed_nodes: int = 0


WORKLOADS: typing.Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "recording",
            "commuting recording mix, materialized history: the "
            "subtransaction lifecycle in sim/runtime/txn dominates",
            dict(protocol="3v", nodes=8, entities=200, span=2,
                 duration=180.0, **_RECORDING_MIX),
        ),
        Workload(
            "stream_skewed",
            "same mix in bounded-memory mode with Zipf 0.99 hot keys: "
            "specs built lazily, records folded at retire, rolling audit",
            dict(protocol="3v", nodes=8, entities=2000, span=3, stream=1,
                 zipf=0.99, duration=120.0, **_RECORDING_MIX),
        ),
        Workload(
            "control_plane_64",
            "64 nodes, light user traffic, advancement every 0.5: "
            "advancement waves in core/net/storage.counters dominate",
            dict(protocol="3v", nodes=64, entities=200, span=2,
                 update_rate=4.0, inquiry_rate=2.0, audit_rate=0.1,
                 advancement_period=0.5, poll_interval=0.1, duration=500.0),
        ),
        Workload(
            "nc3v_rf2_faults",
            "non-commuting corrections (NC3V locks + 2PC takeover), rf=2, "
            "two node crashes and one partition: the only fault path",
            dict(protocol="3v", nodes=8, entities=200, span=2,
                 correction_rate=0.5, replication_factor=2,
                 partition_count=1, duration=60.0, **_RECORDING_MIX),
            crashed_nodes=2,
        ),
    )
}


def experiment_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th experiment of a benchmark run."""
    return seed * 1000 + index


def make_spec(workload: Workload, seed: int):
    from repro.exp.spec import ExperimentSpec

    return ExperimentSpec(seed=seed, fault_seed=seed, **workload.spec)


def run_kwargs(workload: Workload, spec) -> typing.Dict[str, typing.Any]:
    """Arguments for ``run_recording_experiment`` (faults built here).

    ``run_recording_experiment`` can only crash every node at once, so the
    crash plan of a faulty workload is built explicitly: ``crashed_nodes``
    nodes other than ``n00`` are picked from the seed and each crashes once
    inside the fault window of a one-partition storm.
    """
    kwargs = spec.run_kwargs()
    if not workload.crashed_nodes:
        return kwargs
    from repro.faults import FaultPlan

    node_ids = [f"n{index:02d}" for index in range(spec.nodes)]
    victims = random.Random(spec.seed).sample(
        node_ids[1:], workload.crashed_nodes)
    storm = dict(fault_seed=spec.fault_seed, duration=spec.duration)
    crashes = FaultPlan.storm(sorted(victims), crash_count=1, **storm).crashes
    partitions = FaultPlan.storm(
        node_ids, partition_count=kwargs.pop("partition_count"), **storm)
    kwargs["faults"] = dataclasses.replace(partitions, crashes=crashes)
    return kwargs
