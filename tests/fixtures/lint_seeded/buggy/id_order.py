"""Shapes the retired D107 caught, now N704's: objects ordered by their
address — a sort key, and a comparison choosing which process starts."""


def drain_order(waiters):
    return sorted(waiters, key=id)  # expect: N704


def start_first(env, a, b, work):
    if id(a) < id(b):  # expect: N704
        env.process(work(env, a))
    else:
        env.process(work(env, b))
