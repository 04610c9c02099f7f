"""Bundled reference dataset: entropies reported for two hardware runs.

Two published runs on a five-transmon device, 8192 shots per circuit,
each measuring one five-observable cycle on one prepared two-qubit state:
run "s1" used the first observable set, run "s2" the second. The dataset
stores the eight reported entropies per run to their full printed
precision (11 decimals) plus the M value each source table printed.

Recomputing M from the stored s1 entropies gives 0.31593..., not the
reported 0.31094; the reconciliation pipeline surfaces this as an explicit
DISCREPANCY flag and never silently picks a side. The s2 entries are
internally consistent at the printed precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .entropy import EntropyReport
from .statevec import PRESET_S1, PRESET_S2, StatePrepSpec

_S1_SINGLES = {2: 1.64585197639, 3: 1.64895625081, 4: 1.59833444323}
_S1_PAIRS = {
    (1, 2): 1.66393718437,
    (2, 3): 1.27965313199,
    (3, 4): 1.28397144279,
    (4, 5): 1.63159920673,
    (5, 1): 1.28194875079,
}
_S2_SINGLES = {2: 1.06520690834, 3: 0.93645713795, 4: 1.13336434612}
_S2_PAIRS = {
    (1, 2): 0.96298009177,
    (2, 3): 1.09859136316,
    (3, 4): 0.93969773354,
    (4, 5): 0.96202918695,
    (5, 1): 0.95424133222,
}


@dataclass(frozen=True)
class ReferenceRun:
    """One reported run: state preset, observable set, entropies, printed M."""

    name: str
    state: StatePrepSpec
    observable_set: str
    h_singles: MappingProxyType
    h_pairs: MappingProxyType
    reported_m: float

    def to_report(self) -> EntropyReport:
        """EntropyReport whose m_value is recomputed from the entries."""
        return EntropyReport.from_entropies(
            dict(self.h_singles), dict(self.h_pairs), convention="fine"
        )


REFERENCE_RUNS: dict[str, ReferenceRun] = {
    "s1": ReferenceRun(
        name="s1",
        state=PRESET_S1,
        observable_set="table1",
        h_singles=MappingProxyType(_S1_SINGLES),
        h_pairs=MappingProxyType(_S1_PAIRS),
        reported_m=0.31094,
    ),
    "s2": ReferenceRun(
        name="s2",
        state=PRESET_S2,
        observable_set="table2",
        h_singles=MappingProxyType(_S2_SINGLES),
        h_pairs=MappingProxyType(_S2_PAIRS),
        reported_m=0.12597,
    ),
}
