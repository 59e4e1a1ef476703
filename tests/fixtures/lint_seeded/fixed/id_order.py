"""The fixes: order on a stable attribute; ``id()`` equality is an
identity test and stays deterministic."""


def drain_order(waiters):
    return sorted(waiters, key=lambda w: w.seq)


def start_first(env, a, b, work):
    if id(a) == id(b):  # one object: start it once
        env.process(work(env, a))
    elif a.seq < b.seq:
        env.process(work(env, a))
    else:
        env.process(work(env, b))


# Flagged by the retired D107, by no rule now (see `--explain N704`):
# module-level code whose value reaches no sink.
first, second = object(), object()
ranked = sorted([first, second], key=id)
if id(first) < id(second):
    pass
