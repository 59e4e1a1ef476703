"""Shapes the retired S202 caught, now R504's: a claimed pool unit that
is never given back — the request is discarded, or it reaches the end
of the function unreleased."""


def claim_and_wait(env, pool):
    yield pool.request()  # expect: R504
    yield env.timeout(10)


def claim_and_forget(env, pool):
    pool.request()  # expect: R504
    yield env.timeout(10)


def claim_and_hold(env, pool):
    req = pool.request()  # expect: R504
    yield req
    yield env.timeout(10)


def claim_and_work(env, pool, work):
    req = pool.request()  # expect: R504
    yield req
    work()
