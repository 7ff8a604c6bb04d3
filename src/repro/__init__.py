"""echo-audit: an auditing framework for tracking, profiling, and ad
targeting in a simulated Amazon Echo smart speaker ecosystem.

Reproduction of Iqbal et al., *"Your Echos are Heard: Tracking,
Profiling, and Ad Targeting in the Amazon Smart Speaker Ecosystem"*
(IMC 2023).

Quickstart::

    from repro import CampaignSpec, ExperimentConfig, run_campaign
    from repro.core import bid_summary_table, detect_cookie_syncing

    spec = CampaignSpec(config=ExperimentConfig(), seed=42)
    dataset = run_campaign(spec)
    for row in bid_summary_table(dataset):
        print(row.persona, row.summary.median, row.summary.mean)
    sync = detect_cookie_syncing(dataset)
    print(sync.partner_count, "advertisers sync cookies with Amazon")
    print(dataset.obs.summary()["counters"])  # the campaign trace

Or over HTTP — ``repro serve`` starts the audit service and any client
that can POST the spec's JSON gets the same campaign, byte-identical
(see :mod:`repro.service`).

Package map:

- :mod:`repro.core` — the auditing framework (experiment + analyses)
- :mod:`repro.service` — audit-as-a-service HTTP layer (jobs, scheduler)
- :mod:`repro.obs` — seeded-deterministic observability (spans, metrics)
- :mod:`repro.alexa` — simulated Echo ecosystem (devices, cloud, DSAR)
- :mod:`repro.adtech` — header bidding, DSPs, cookie sync, audio ads
- :mod:`repro.web` — browsers and the OpenWPM-style crawler
- :mod:`repro.netsim` — packets, TLS opacity, DNS, router, captures
- :mod:`repro.orgmap` — entity lists, WHOIS, filter lists
- :mod:`repro.policies` — policy corpus + PoliCheck analysis
- :mod:`repro.data` — the seeded world and its calibration tables

``repro.__all__`` is the supported public surface: every name in it is
importable from ``repro`` directly, documented in ``docs/API.md``, and
covered by the semantic-versioning promise (``__version__``, which
``pyproject.toml`` derives its package version from).
"""

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__version__ = "1.8.0"


def _lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """PEP 562 re-exports for ``package``: ``(__getattr__, __dir__, __all__)``.

    ``table`` maps each public name, in ``__all__`` order, to the
    submodule of ``package`` that defines it.  A name's submodule is
    imported on first access and the value cached in the package's
    globals, so later lookups never reach ``__getattr__`` and a process
    imports only the submodules its run touches.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{table[name]}")
        namespace[name] = value = getattr(module, name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__, list(table)


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "CampaignSpec": "core.campaign",
        "ExperimentConfig": "core.experiment",
        "Seed": "util.rng",
        "execute_spec": "core.campaign",
        "run_campaign": "core.campaign",
    },
)
__all__ = sorted([*__all__, "__version__"])
