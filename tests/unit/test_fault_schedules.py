"""Pinned fault schedules: one SHA-256 per domain's decision sequence.

The other fault tests compare two runs of the same code, so a change
both runs share — a reordered kind, a renamed namespace, a re-keyed
substream, a parameter drawn in a different place — passes them.  Storage
faults never change exports, so such a change would be invisible
everywhere else too.  These digests pin the exact decisions each domain
draws for fixed seeds and keys; they change only when the schedule does.

Each decision is written as its kind plus the parameters its domain
uses, as exact ``float.hex`` strings; a healthy draw is ``-``.
"""

import hashlib

import pytest

from repro.core.iosim import StorageFaultPlan
from repro.core.parallel import WorkerFaultPlan
from repro.netsim.faults import FaultPlan, FaultProfile
from repro.util.rng import Seed

NETWORK_KEYS = [
    (actor, domain)
    for actor in ("echo-0001", "echo-0002", "browser-fashion-style", "avs-echo")
    for domain in ("amazon.com", "doubleclick.net", "skills.example.org")
]

STORAGE_KEYS = [
    ("checkpoint", "shard"),
    ("segments", "segment"),
    ("segments", "marker"),
    ("segments", "index"),
    ("jobs", "state"),
    ("cache", "dataset"),
]

WORKER_KEYS = [(shard, attempt) for shard in range(12) for attempt in (1, 2, 3)]


def _line(decision, params):
    if decision is None:
        return "-"
    return ":".join(
        [decision.kind, *(float(getattr(decision, p)).hex() for p in params)]
    )


def _digest(plan, keys, draws, params):
    digest = hashlib.sha256()
    for key in keys:
        for _ in range(draws):
            digest.update(_line(plan.decide(*key), params).encode() + b"\n")
    return digest.hexdigest()


NETWORK_DIGESTS = {
    "mild": "5f24b60a6c047b7fc6d4469eb01d945d3454ecae3f896ca43338d273f4d63378",
    "harsh": "87f37e9396c743234096153c4575c25c5dcbe013709d90c3e16a462edf081998",
    "0.05": "8fea81d0565d962770d603fb2909e33ff9e53f6bcabe62b1c0f2ea9e22acb064",
}


@pytest.mark.parametrize("profile", sorted(NETWORK_DIGESTS))
def test_network_schedule(profile):
    plan = FaultPlan(Seed(42), FaultProfile.parse(profile))
    digest = _digest(plan, NETWORK_KEYS, 300, ("seconds",))
    assert digest == NETWORK_DIGESTS[profile]


STORAGE_DIGESTS = {
    "mild": "0d5efd8d9c89615b66f9ebe7ed28016c46c0db1441f4bb0a8df894213e1bc5b7",
    "harsh": "b569f5f0e0a8432eac1ba2d9238fa628e4006a3e796394ea902cd82a8292f05f",
    "0.05": "71d86e6ab40c711f954ba50e043b47fbe0a3dbd0e92a4edf5ea7f127fc983177",
}


@pytest.mark.parametrize("profile", sorted(STORAGE_DIGESTS))
def test_storage_schedule(profile):
    plan = StorageFaultPlan.from_profile(profile, 42)
    digest = _digest(plan, STORAGE_KEYS, 300, ("seconds", "fraction"))
    assert digest == STORAGE_DIGESTS[profile]


def test_storage_schedule_with_exhaust():
    # The thresholds override the draw and consume none of it, so each
    # key's rated decisions after the threshold keep their positions.
    plan = (
        StorageFaultPlan.from_profile("harsh", 7)
        .exhaust("segments", "segment", after=40)
        .exhaust("jobs", after=10)
    )
    digest = hashlib.sha256()
    for _ in range(120):
        for key in STORAGE_KEYS:
            decision = plan.decide(*key)
            digest.update(_line(decision, ("seconds", "fraction")).encode() + b"\n")
    assert digest.hexdigest() == (
        "1143a9a8ad17f8405752ba765c06e41bb2507a0f6c87a3fda615a14967b318e3"
    )


def test_worker_schedule():
    plan = WorkerFaultPlan(Seed(42), crash_rate=0.3, hang_rate=0.2, poison_rate=0.1)
    assert _digest(plan, WORKER_KEYS, 25, ()) == (
        "701e7e934384a90be3040b376fad9ccd588cbf161209fe26113b92229e150f9d"
    )
