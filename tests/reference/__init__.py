"""Reference implementations the differential suites compare against.

Production has one representation per concept: bitmask solver kernels
and the interned version-2 payload.  The implementations they replaced
live here as oracles, not as production options:

* :func:`reference_andersen_run` and :func:`reference_fsci_run` — the
  frozenset Andersen and FSCI solvers, drop-in replacements for
  ``Andersen.run`` / ``FSCI.run`` (tests install them with
  ``monkeypatch.setattr``);
* :class:`ReferenceSummaryEngine` — the dataclass/frozenset summary
  walk (Algorithms 4-5) with its LIFO fixpoint, the oracle of the
  interned callee-first :class:`repro.analysis.SummaryEngine`;
* :func:`build_v1_payload` and its decoders — the inline version-1
  cluster payload, the size baseline of the interned format;
* :mod:`.profile_solvers` — the kernel-vs-reference bench behind
  ``BENCH_kernel.json``.
"""

from .andersen import reference_andersen_run
from .fsci import ReferenceFSCIResult, reference_fsci_run
from .payload_v1 import (
    build_v1_payload,
    v1_cluster,
    v1_fsci_fingerprint,
    v1_program,
)
from .summaries import ReferenceSummaryEngine

__all__ = [
    "ReferenceFSCIResult", "ReferenceSummaryEngine", "build_v1_payload",
    "reference_andersen_run", "reference_fsci_run", "v1_cluster", "v1_fsci_fingerprint",
    "v1_program",
]
