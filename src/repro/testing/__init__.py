"""Test-support utilities shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection harness
the campaign fault-tolerance suite drives: it can crash workers, hang
them, raise exceptions mid-unit and tear cache entries at exactly chosen
points, reproducibly across process boundaries.
"""

from .faults import FaultPlan, FaultRule, InjectedCrash, InjectedFault, tear_file

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "tear_file",
]
