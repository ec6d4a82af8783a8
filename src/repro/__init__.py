"""Reproduction of the HPCA 2001 paper "Differential FCM: Increasing Value
Prediction Accuracy by Improving Table Usage Efficiency" (Goeman,
Vandierendonck and De Bosschere).

The package is organised as:

- :mod:`repro.core` -- the value predictors studied in the paper (last
  value, stride, FCM, DFCM, hybrids), their declarative specs, the
  scalar and batch replay engines, and the storage model.
- :mod:`repro.isa`, :mod:`repro.asm`, :mod:`repro.vm` -- a MIPS-like
  32-bit instruction set, assembler and functional simulator standing in
  for SimpleScalar's ``sim-safe``.
- :mod:`repro.lang` -- MinC, a small C-subset compiler standing in for
  gcc; the SPECint95-like workloads are written in MinC.
- :mod:`repro.workloads` -- the benchmark programs and synthetic trace
  generators.
- :mod:`repro.trace` -- value-trace capture and caching.
- :mod:`repro.harness` -- experiment registry reproducing every figure
  and table of the paper's evaluation.
- :mod:`repro.telemetry` -- metrics, recorded runs, SLOs and the
  table-usage instrumentation (aliasing taxonomy, level-2 occupancy,
  efficiency).
- :mod:`repro.serve` -- the online prediction service: wire protocol,
  server, client and the multi-worker cluster.
"""

from repro.core.base import ValuePredictor
from repro.core.last_value import LastValuePredictor
from repro.core.stride import StridePredictor, TwoDeltaStridePredictor
from repro.core.fcm import FCMPredictor
from repro.core.dfcm import DFCMPredictor
from repro.core.hybrid import OracleHybridPredictor, MetaHybridPredictor
from repro.core.delayed import DelayedUpdatePredictor
from repro.trace.trace import ValueTrace
from repro.harness.simulate import measure_accuracy, measure_suite

__all__ = [
    "ValuePredictor",
    "LastValuePredictor",
    "StridePredictor",
    "TwoDeltaStridePredictor",
    "FCMPredictor",
    "DFCMPredictor",
    "OracleHybridPredictor",
    "MetaHybridPredictor",
    "DelayedUpdatePredictor",
    "ValueTrace",
    "measure_accuracy",
    "measure_suite",
]

__version__ = "1.0.0"
