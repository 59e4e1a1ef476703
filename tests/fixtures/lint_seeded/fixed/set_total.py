"""The fix: sum the distinct values in sorted order."""


def distinct_total(sizes):
    return sum(sorted(set(sizes)))
