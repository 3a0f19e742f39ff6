"""Equality of whole serialized logs, reported briefly.

pytest's assertion rewriting explains a failed `==` between two strings
with a difflib diff, which on logs of hundreds of kB runs for minutes.
`assert_same_log` makes the same check and, on a mismatch, reports both
lengths and the first differing offset with a short window of each text
around it.
"""

# Characters shown on each side of the first difference.
WINDOW = 60


def first_difference(a, b) -> int:
    """The length of the longest common prefix of a and b."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def assert_same_log(first, *others):
    """Fail unless every text in others equals first."""
    for index, other in enumerate(others, 1):
        if other != first:
            at = first_difference(first, other)
            window = slice(max(0, at - WINDOW), at + WINDOW)
            raise AssertionError(
                f"logs 0 and {index} differ: lengths {len(first)} and "
                f"{len(other)}, first difference at offset {at}\n"
                f"  0: {first[window]!r}\n  {index}: {other[window]!r}")
