"""The fixes: release the unit on every path, or hand the request to the
owner that releases it."""

from repro.compute.scheduler import Node


def claim_and_wait(env, pool):
    with pool.request() as req:
        yield req
        yield env.timeout(10)


def claim_and_forget(env, pool):
    req = pool.request()
    try:
        yield req
        yield env.timeout(10)
    finally:
        req.release()


def claim_and_hold(env, pool):
    req = pool.request()
    try:
        yield req
        yield env.timeout(10)
    except BaseException:
        req.release()
        raise
    req.release()


def claim_and_work(env, pool, work):
    req = pool.request()
    try:
        yield req
        work()
    finally:
        req.release()


def claim_for_caller(env, pool):
    req = pool.request()
    yield req
    return req  # the caller owns the unit now


def provision(env, pool, node_id):
    # the compute scheduler's hand-off: the node releases its request
    req = pool.request()
    yield req
    return Node(node_id=node_id, provisioned_at=env.now, request=req)
