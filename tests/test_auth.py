"""Tests for the auth substrate."""

from __future__ import annotations

import pytest

from repro.auth import AccessPolicy, AuthClient, ScopeAuthorizer
from repro.auth.identity import (
    COMPUTE_SCOPE,
    TRANSFER_SCOPE,
)
from repro.errors import AuthError, PermissionDenied


@pytest.fixture
def client():
    return AuthClient()


@pytest.fixture
def alice(client):
    return client.register_identity("alice", organization="ANL")


def test_register_identity_idempotent(client):
    a = client.register_identity("bob")
    b = client.register_identity("bob")
    assert a is b


def test_identity_urn(alice):
    assert alice.urn == "urn:repro:identity:alice"


def test_issue_and_validate_token(client, alice):
    tok = client.issue_token(alice, [TRANSFER_SCOPE], now=0.0)
    ident = client.validate(tok, TRANSFER_SCOPE, now=100.0)
    assert ident is alice


def test_token_scope_enforced(client, alice):
    tok = client.issue_token(alice, [TRANSFER_SCOPE], now=0.0)
    with pytest.raises(PermissionDenied):
        client.validate(tok, COMPUTE_SCOPE, now=1.0)


def test_token_expiry(client, alice):
    tok = client.issue_token(alice, [TRANSFER_SCOPE], now=0.0, lifetime=10.0)
    client.validate(tok, TRANSFER_SCOPE, now=9.9)
    with pytest.raises(AuthError, match="expired"):
        client.validate(tok, TRANSFER_SCOPE, now=10.0)


def test_token_revocation(client, alice):
    tok = client.issue_token(alice, [TRANSFER_SCOPE], now=0.0)
    client.revoke(tok)
    with pytest.raises(AuthError, match="revoked"):
        client.validate(tok, TRANSFER_SCOPE, now=1.0)


def test_foreign_token_rejected(client, alice):
    other = AuthClient()
    foreign = other.issue_token(other.register_identity("alice"), [TRANSFER_SCOPE], now=0.0)
    with pytest.raises(AuthError, match="not issued"):
        client.validate(foreign, TRANSFER_SCOPE, now=0.0)


def test_unknown_scope_rejected_at_issue(client, alice):
    with pytest.raises(AuthError, match="unknown scopes"):
        client.issue_token(alice, ["urn:bogus:scope"], now=0.0)


def test_unregistered_identity_cannot_get_token(client):
    other = AuthClient().register_identity("eve")
    with pytest.raises(AuthError, match="not registered"):
        client.issue_token(other, [TRANSFER_SCOPE], now=0.0)


def test_scope_authorizer(client, alice):
    tok = client.issue_token(alice, [COMPUTE_SCOPE], now=0.0)
    auth = ScopeAuthorizer(client, COMPUTE_SCOPE)
    assert auth.authorize(tok, now=5.0) is alice
    wrong = ScopeAuthorizer(client, TRANSFER_SCOPE)
    with pytest.raises(PermissionDenied):
        wrong.authorize(tok, now=5.0)


def test_invalid_lifetime():
    with pytest.raises(AuthError):
        AuthClient(lifetime=0)


# -- AccessPolicy -----------------------------------------------------------


def test_policy_writer_implies_reader(client, alice):
    pol = AccessPolicy().allow_write(alice)
    assert pol.can_read(alice)
    assert pol.can_write(alice)


def test_policy_reader_cannot_write(client, alice):
    pol = AccessPolicy().allow_read(alice)
    assert pol.can_read(alice)
    assert not pol.can_write(alice)
    with pytest.raises(PermissionDenied):
        pol.check_write(alice)


def test_policy_public_read(client):
    bob = client.register_identity("bob")
    pol = AccessPolicy().allow_read(AccessPolicy.PUBLIC)
    assert pol.can_read(bob)


def test_policy_denies_stranger(client):
    eve = client.register_identity("eve")
    pol = AccessPolicy()
    with pytest.raises(PermissionDenied):
        pol.check_read(eve, what="the index")


def test_policy_accepts_urn_strings(client, alice):
    pol = AccessPolicy().allow_read("urn:repro:identity:alice")
    assert pol.can_read(alice)
