"""Adversarial programs and the execution framework.

This package makes the paper's lower-bound constructions *runnable*:

* :class:`~repro.adversary.robson_program.RobsonProgram` — Robson's bad
  program :math:`P_R` (Algorithm 2), extended with ghost handling so it
  tolerates compacting managers;
* :class:`~repro.adversary.pf_program.PFProgram` — the paper's two-stage
  adversary :math:`P_F` (Algorithm 1) with ghosts, object↔chunk
  association and density maintenance;
* :class:`~repro.adversary.driver.ExecutionDriver` — the §2.1
  interaction loop, enforcing the ``M`` and ``c``-partial contracts and
  measuring ``HS``;
* :mod:`~repro.adversary.potential` — the potential function ``u(t)``
  with an observer asserting Claim 4.16 on live executions;
* :mod:`~repro.adversary.workloads` — benign programs for exercising the
  upper-bound managers.
"""

from .association import HALF, WHOLE, AssociationMap
from .base import AdversaryProgram, ProgramView
from .checkerboard import CheckerboardProgram
from .driver import ExecutionDriver, ExecutionResult, run_execution
from .ghosts import Ghost, GhostRegistry
from .pf_program import PFProgram
from .potential import PotentialObserver, potential, potential_twice
from .replay import ReplayProgram, replay_against
from .robson_program import RobsonEngine, RobsonProgram
from .stats import LemmaLedger, LemmaReport
from .workloads import (
    BurstyWorkload,
    ExponentialChurnWorkload,
    PhasedWorkload,
    RandomChurnWorkload,
    SawtoothWorkload,
)

__all__ = [
    "AdversaryProgram",
    "AssociationMap",
    "BurstyWorkload",
    "CheckerboardProgram",
    "ExponentialChurnWorkload",
    "ExecutionDriver",
    "ExecutionResult",
    "Ghost",
    "GhostRegistry",
    "HALF",
    "LemmaLedger",
    "LemmaReport",
    "PFProgram",
    "PhasedWorkload",
    "PotentialObserver",
    "ProgramView",
    "RandomChurnWorkload",
    "ReplayProgram",
    "RobsonEngine",
    "RobsonProgram",
    "SawtoothWorkload",
    "WHOLE",
    "potential",
    "potential_twice",
    "replay_against",
    "run_execution",
]
