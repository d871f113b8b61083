"""GAC's agglomeration as a rescanning loop, the oracle for
:meth:`repro.baselines.gac.GACClusterer._agglomerate`.

After every merge the loop scores every pair of the units left and
merges the first pair, in list order, with the highest score above
-1.0; the merged unit goes to the end of the list. The library scores
each pair once and keeps the scores. Both must make the same merges in
the same order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.gac import GACClusterer, _Unit


def agglomerate(bucket: List[_Unit], goal: int) -> List[_Unit]:
    """Greedy group-average agglomeration until ``goal`` units remain."""
    units = list(bucket)
    while len(units) > goal:
        best_pair: Optional[Tuple[int, int]] = None
        best_score = -1.0
        for i in range(len(units)):
            for j in range(i + 1, len(units)):
                score = GACClusterer._merge_score(units[i], units[j])
                if score > best_score:
                    best_score = score
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        merged = units[i].merged_with(units[j])
        units = units[:i] + units[i + 1:j] + units[j + 1:] + [merged]
    return units
