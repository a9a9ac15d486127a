"""Synthetic power-law graph, standing in for the twitter-2010 crawl.

The paper's input (Kwak et al. 2010: 42 M vertices, 1.5 B edges) is scaled
down while keeping the structural property that matters for memory
behaviour: a heavy-tailed degree distribution, so edge batches vary in
size and the engine's memory budget — not a fixed vertex count — decides
batch boundaries.
"""

from __future__ import annotations

import random
from typing import List


class PowerLawGraph:
    """Degree sequence of a scaled-down power-law graph.

    Only the *shape* is materialized (per-vertex degrees); edges exist as
    counts, which is all the engine's block-loading cost model needs.
    """

    def __init__(
        self,
        vertex_count: int = 200_000,
        mean_degree: float = 18.0,
        alpha: float = 1.8,
        seed: int = 42,
    ) -> None:
        if vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        if mean_degree <= 0:
            raise ValueError("mean_degree must be positive")
        self.vertex_count = vertex_count
        self.alpha = alpha
        draw = random.Random(seed).random
        # Pareto-distributed degrees, rescaled to the requested mean.
        # Each draw is ``Random.paretovariate(alpha)`` written inline
        # (CPython 3.11's formula, bit for bit) to skip a method call
        # per vertex.
        exponent = -1.0 / alpha
        raw = [(1.0 - draw()) ** exponent for _ in range(vertex_count)]
        scale = mean_degree * vertex_count / sum(raw)
        self.degrees: List[int] = [max(1, int(d * scale)) for d in raw]
        self.edge_count = sum(self.degrees)

    def batch_slices(self, edge_budget: int) -> List[range]:
        """Partition vertices into contiguous batches of ≤ ``edge_budget``
        edges each — GraphChi's interval computation."""
        if edge_budget <= 0:
            raise ValueError("edge_budget must be positive")
        slices: List[range] = []
        start = 0
        edges = 0
        for v, degree in enumerate(self.degrees):
            edges += degree
            if edges >= edge_budget:
                slices.append(range(start, v + 1))
                start = v + 1
                edges = 0
        if start < self.vertex_count:
            slices.append(range(start, self.vertex_count))
        return slices
