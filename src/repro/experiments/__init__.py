"""Reproduction harnesses for the paper's evaluation artifacts.

One module per artifact (see DESIGN.md §4 for the experiment index):

- :mod:`repro.experiments.protocol` — the shared §11 test procedure:
  calibrate level → introduce misalignment → run 300 s → compare the
  Kalman estimate against the laser-boresight truth.
- :mod:`repro.experiments.table1` — static & dynamic alignment results.
- :mod:`repro.experiments.figure8` — X-axis residuals vs 3-sigma.
- :mod:`repro.experiments.figure9` — dynamic convergence traces.
- :mod:`repro.experiments.ablations` — measurement-noise sweep, LUT
  resolution sweep, arithmetic-backend sweep.
"""

from repro.experiments.arena import StateArena
from repro.experiments.batch_protocol import (
    DynamicEnsemble,
    LockstepEnsemble,
    StaticEnsemble,
    run_dynamic_ensemble,
    run_static_ensemble,
)
from repro.experiments.protocol import BoresightTestRig, RigConfig, TestRun
from repro.experiments.table1 import (
    Table1Row,
    format_table1,
    run_dynamic_table,
    run_static_table,
)

__all__ = [
    "StateArena",
    "BoresightTestRig",
    "RigConfig",
    "TestRun",
    "LockstepEnsemble",
    "StaticEnsemble",
    "DynamicEnsemble",
    "run_static_ensemble",
    "run_dynamic_ensemble",
    "Table1Row",
    "run_static_table",
    "run_dynamic_table",
    "format_table1",
]
