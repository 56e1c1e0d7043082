"""An exhaustive census of small morphisms, an oracle for the matching-form
reducer that does not go through the reducer's own schedule.

It enumerates every single matrix over F_p that respects the support rule,
with 1 to K bars per side on the grid 0..L. Each one is reduced under both
pivot rules, and each one that fails under either rule goes to
search_matching_form. The tier-1 suite runs the small slices
(tests/test_ladder.py); the full L = 3, K = 3 run over F_2 (1,438,888
morphisms, a few minutes) is this script:

    PYTHONPATH=src python tests/census.py

It prints its counts, and exits with status 1 when a pair of nested-free
barcodes fails, or when a certified failure has a matching form.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from itertools import combinations_with_replacement, product

from laddermod import (
    Barcode,
    Interval,
    Matrix,
    MorphismMatrix,
    ReductionFailure,
    field_by_name,
    interval_overlap,
    module_from_barcode,
    nestedness,
    reduce_to_barcode_basis,
    reduce_to_matching_form,
    search_matching_form,
)

PIVOT_RULES = ("first", "last")
MAX_STATES = 20000


def sides(field, grid_len, max_bars):
    """(generators, nested-free) for every multiset of 1..max_bars bars on
    the grid 0..grid_len, in the bases the library builds for them."""
    bars = [Interval(a, b) for a in range(grid_len + 1) for b in range(a, grid_len + 1)]
    out = []
    for k in range(1, max_bars + 1):
        for chosen in combinations_with_replacement(bars, k):
            basis = reduce_to_barcode_basis(module_from_barcode(field, grid_len, chosen))
            out.append((tuple(basis.generators), nestedness(Barcode(chosen)) == math.inf))
    return out


def morphisms(p, grid_len, max_bars):
    """Every single matrix over F_p with entries only where the support rule
    allows them, as (mm, nested_free): both barcodes nested-free."""
    field = field_by_name("prime %d" % p)
    elements = [field.of(v) for v in range(p)]
    all_sides = sides(field, grid_len, max_bars)
    for rows, rows_free in all_sides:
        for cols, cols_free in all_sides:
            allowed = [r * len(cols) + c for r, rg in enumerate(rows) for c, cg in enumerate(cols)
                       if interval_overlap(rg.bar, cg.bar)]
            for values in product(elements, repeat=len(allowed)):
                data = [elements[0]] * (len(rows) * len(cols))
                for k, x in zip(allowed, values):
                    data[k] = x
                entries = Matrix(field, len(rows), len(cols), data)
                yield MorphismMatrix(rows, cols, entries), rows_free and cols_free


def census(p, grid_len, max_bars, on_success=None, on_failure=None):
    """The counts of the census, a Counter. Under each pivot rule: failures,
    uncertified failures, failures the search resolves, and failures whose
    search is exhausted. Over the morphisms that fail under either rule:
    search states in total. Then the three faults the theory forbids, each
    0 on a sound reducer: a nested-free failure, a certified failure the
    search resolves, and an uncertified one it neither resolves nor
    exhausts. on_success(mm, matched, ops) and on_failure(mm, failure) see
    every reduction."""
    counts = Counter()
    for mm, nested_free in morphisms(p, grid_len, max_bars):
        counts["morphisms"] += 1
        failed = []
        for rule in PIVOT_RULES:
            out = reduce_to_matching_form(mm, pivot_rule=rule)
            if isinstance(out, ReductionFailure):
                failed.append((rule, out))
                if on_failure is not None:
                    on_failure(mm, out)
            elif on_success is not None:
                on_success(mm, *out)
        if not failed:
            continue
        res = search_matching_form(mm, max_states=MAX_STATES)
        counts["search states"] += res.states
        for rule, fail in failed:
            counts["failures " + rule] += 1
            counts["uncertified " + rule] += not fail.certified
            counts["resolved " + rule] += res.found is not None
            counts["exhausted " + rule] += res.exhausted and res.found is None
            counts["nested-free failures"] += nested_free
            counts["certified but resolved"] += fail.certified and res.found is not None
            counts["uncertified and open"] += not (
                fail.certified or res.found is not None or res.exhausted)
    return counts


FAULTS = ("nested-free failures", "certified but resolved")


def main():
    p, grid_len, max_bars = 2, 3, 3
    counts = census(p, grid_len, max_bars)
    print("census over F_%d, grid 0..%d, 1..%d bars per side, search budget %d states"
          % (p, grid_len, max_bars, MAX_STATES))
    for key in sorted(counts):
        print("%-24s %d" % (key, counts[key]))
    faults = [key for key in FAULTS if counts[key]]
    if faults:
        print("FAULT: %s" % ", ".join(faults))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
