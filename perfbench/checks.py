"""Output checks. Each returns None when the output is right, else a reason.

The checks recompute what they compare against from the inputs the
benchmark generated, never from the program's own consistency helpers.
"""

from __future__ import annotations

import math

# Relative tolerance for "equal to round-off" on perplexities.
PPL_RTOL = 1e-9
# Relative tolerance between a normalizer and the exact sum of its row.
NORM_RTOL = 1e-12


def check_ppl(ppl: float, reference: float | None, printed: str | None = None) -> str | None:
    """Finite, equal to the committed reference when there is one, and
    equal to the CLI's printed value at the precision it prints."""
    if not math.isfinite(ppl) or ppl <= 0:
        return f"test ppl {ppl!r} is not a finite positive number"
    if printed is not None and f"{ppl:.6g}" != printed:
        return f"test ppl {ppl!r} disagrees with the printed ppl {printed}"
    if reference is not None and not math.isclose(ppl, reference, rel_tol=PPL_RTOL):
        return f"test ppl {ppl!r} differs from the reference {reference!r}"
    return None


def check_normalizers(rows, normalizers) -> str | None:
    """Every normalizer equals the math.fsum of its row."""
    if set(rows) != set(normalizers):
        return "rows and normalizers cover different features"
    for f, row in rows.items():
        exact = math.fsum(row.values())
        if not math.isclose(normalizers[f], exact, rel_tol=NORM_RTOL, abs_tol=0.0):
            return f"normalizer {normalizers[f]!r} of {f!r} != row sum {exact!r}"
    return None


def check_store(store, expected_events: int) -> str | None:
    """The event total matches the text and every feature count is its row sum."""
    if store.total_events != expected_events:
        return f"count total {store.total_events} != {expected_events} events in the text"
    for f, row in store.rows.items():
        if store.feature_counts.get(f) != sum(row.values()):
            return f"feature count of {f!r} != its row sum"
    if set(store.feature_counts) != set(store.rows):
        return "feature counts and rows cover different features"
    return None


def check_count_file(path, expected: dict[str, int]) -> str | None:
    """The event total line and each empty-context row match the text.

    `expected` maps an empty-context feature string (``[]`` or ``tag:[]``)
    to the number of events of its source; every event has that feature
    exactly once, so its row sums to the event count.
    """
    total = None
    sums = dict.fromkeys(expected, 0)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#total-events "):
                total = int(line.split()[1])
            elif not line.startswith("#"):
                fs, _, c = line.rstrip("\n").split("\t")
                if fs in sums:
                    sums[fs] += int(c)
    if total != sum(expected.values()):
        return f"count file total {total} != {sum(expected.values())} events in the text"
    for fs, n in expected.items():
        if sums[fs] != n:
            return f"row {fs} sums to {sums[fs]}, expected {n} events"
    return None


def check_same_bytes(path_a, path_b) -> str | None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            return f"{path_a} and {path_b} differ"
    return None


def check_dev_ppl_fell(dev_ppls: list[float]) -> str | None:
    """Dev perplexity after the last epoch is below epoch 0's."""
    if len(dev_ppls) < 2:
        return f"expected per-epoch dev perplexities, got {dev_ppls!r}"
    if not dev_ppls[-1] < dev_ppls[0]:
        return f"dev ppl did not fall: epoch 0 {dev_ppls[0]!r}, last {dev_ppls[-1]!r}"
    return None


def check_same_digests(*groups: list[str]) -> str | None:
    """Within each group, runs of the same code and seed gave the same outputs.

    Groups of one run have nothing to compare; at least one group must
    hold two runs.
    """
    if not any(len(g) >= 2 for g in groups):
        return "no two runs of the same seed to compare"
    for digests in groups:
        if len(set(digests)) > 1:
            return f"output digests differ between runs of the same seed: {digests}"
    return None
