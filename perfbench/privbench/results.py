"""What one workload run hands back to the command line."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .stats import Tally

#: One reported figure: ``(value, unit, sample count or None)``.
Figure = Tuple[float, str, Optional[int]]


@dataclass
class WorkloadResult:
    tally: Tally = field(default_factory=Tally)
    #: The end-to-end metrics under their ``BENCHMARK.json`` names.
    end_to_end: Dict[str, Figure] = field(default_factory=dict)
    #: The per-layer metrics (traced runs only).
    per_layer: Dict[str, Figure] = field(default_factory=dict)
    #: Free-form details written to the result file (set-up runs, rates...).
    details: Dict[str, object] = field(default_factory=dict)
    #: Extra human-readable lines printed before the JSON result.
    notes: List[str] = field(default_factory=list)


#: What each generic end-to-end metric is called in the design notes, by
#: kind of workload (closed-loop queries or open-loop serving).
NOTE_NAMES = {
    "query": {
        "latency_ms.mean": "query_ms.mean",
        "latency_ms.p90": "query_ms.p90",
        "throughput_per_s": "queries_per_s",
    },
    "serving": {
        "latency_ms.mean": "retrieval_ms.mean",
        "latency_ms.p90": "retrieval_ms.p90",
        "throughput_per_s": "saturated_rps",
    },
}
