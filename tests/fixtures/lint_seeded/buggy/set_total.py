"""The reduction shape the retired D106 caught, now N703's: a float sum
over a set rounds in hash order."""


def distinct_total(sizes):
    return sum(set(sizes))  # expect: N703
