"""The fixes: queue in an order fixed by the inputs — the callers' own
sequence with duplicates dropped, or ``sorted(set(...))``."""


def wake(waiters):
    for ev in dict.fromkeys(waiters):  # first-seen order, no duplicates
        ev.succeed()


def abort(waiters, exc):
    for ev in dict.fromkeys(waiters):
        ev.fail(exc)


def enqueue(store, jobs):
    for job in sorted(set(jobs)):
        store.put(job)


def run(env, job):
    yield env.timeout(1)


def launch(env, jobs):
    for job in sorted(set(jobs)):
        env.process(run(env, job))


def launch_all(env, jobs):
    return [env.process(run(env, job)) for job in sorted(set(jobs))]


# Flagged by the retired D106, by no rule now (see `--explain N701`):
# module-level code whose order reaches no sink, and dict.popitem(),
# which pops the most recently inserted item since Python 3.7.
for name in {"a", "b", "c"}:
    print(name)
ys = [y for y in set([1, 2])]
key, value = {"a": 1}.popitem()
