"""Shapes the retired D106 caught, now N701's: events triggered, items
queued and processes started while iterating a set — the kernel queue
then follows hash order, which changes between interpreter runs."""


def wake(waiters):
    for ev in set(waiters):
        ev.succeed()  # expect: N701


def abort(waiters, exc):
    for ev in set(waiters):
        ev.fail(exc)  # expect: N701


def enqueue(store, jobs):
    for job in set(jobs):
        store.put(job)  # expect: N701


def run(env, job):
    yield env.timeout(1)


def launch(env, jobs):
    for job in set(jobs):
        env.process(run(env, job))  # expect: N701


def launch_all(env, jobs):
    return [env.process(run(env, job)) for job in set(jobs)]  # expect: N701
