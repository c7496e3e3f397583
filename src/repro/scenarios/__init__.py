"""Declarative scenario × fault campaigns over the §11 protocols.

Three layers:

- :mod:`repro.scenarios.faults` — composable :class:`Fault` injectors
  (dropouts, stuck/saturated axes, CAN error storms, lossy-link
  bursts, clock skew, drift ramps) applied identically by the serial
  rig and the lockstep ensembles;
- :mod:`repro.scenarios.spec` — the :class:`ScenarioSpec` DSL over
  ``vehicle/profiles`` plus the built-in scenario library (highway,
  mountain switchbacks, stop-and-go, off-road vibration, thermal
  ramps, ...), the :class:`FaultSpec` recipe and the
  :class:`ScenarioRequest` unit of work (scenario × recipe × seeds)
  that campaigns, :func:`repro.api.execute` and the service all run;
- :mod:`repro.scenarios.campaign` — ``run_campaign``: scenario × fault
  × seed grids, one request per cell, executed through the
  ``"campaign"`` engine pair (serial-cell oracle vs lockstep cells,
  optionally sharded over worker processes), classified into a
  degradation report.

Attribute access is lazy (PEP 562): the protocol layer imports
``repro.scenarios.faults`` while the campaign layer imports the
protocol layer, so an eager fan-out here would be circular.
"""

from typing import Any

_EXPORTS = {
    "Fault": "repro.scenarios.faults",
    "RunStreams": "repro.scenarios.faults",
    "SensorDropout": "repro.scenarios.faults",
    "StuckAxis": "repro.scenarios.faults",
    "SaturatedAxis": "repro.scenarios.faults",
    "ClockSkew": "repro.scenarios.faults",
    "CanBusErrorStorm": "repro.scenarios.faults",
    "LossyLinkBurst": "repro.scenarios.faults",
    "DriftRamp": "repro.scenarios.faults",
    "apply_faults": "repro.scenarios.faults",
    "fault_rng": "repro.scenarios.faults",
    "ScenarioSpec": "repro.scenarios.spec",
    "FaultSpec": "repro.scenarios.spec",
    "ScenarioRequest": "repro.scenarios.spec",
    "scenario_library": "repro.scenarios.spec",
    "CampaignCache": "repro.scenarios.cache",
    "canonical_digest": "repro.scenarios.cache",
    "CampaignSpec": "repro.scenarios.campaign",
    "CampaignResult": "repro.scenarios.campaign",
    "fault_library": "repro.scenarios.campaign",
    "smoke_campaign_spec": "repro.scenarios.campaign",
    "run_campaign": "repro.scenarios.campaign",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
