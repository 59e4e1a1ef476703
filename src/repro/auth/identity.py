"""Identities and scoped bearer tokens.

A minimal OAuth-like model: an :class:`AuthClient` registers identities
(users, service accounts) and issues :class:`Token` objects bound to an
identity, a set of scopes, and an expiry time.  Services validate tokens
through the same client.  Clock time is supplied by the caller (the DES
environment's ``now``), keeping this module free of wall-clock coupling.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import AuthError, PermissionDenied

__all__ = ["Identity", "Token", "AuthClient"]

#: Canonical scope names used by the data-flow services, mirroring the
#: Globus service scopes the paper's stack requests.
TRANSFER_SCOPE = "urn:repro:transfer.all"
COMPUTE_SCOPE = "urn:repro:compute.all"
SEARCH_INGEST_SCOPE = "urn:repro:search.ingest"
SEARCH_QUERY_SCOPE = "urn:repro:search.query"
FLOWS_SCOPE = "urn:repro:flows.run"

ALL_SCOPES = (
    TRANSFER_SCOPE,
    COMPUTE_SCOPE,
    SEARCH_INGEST_SCOPE,
    SEARCH_QUERY_SCOPE,
    FLOWS_SCOPE,
)


@dataclass(frozen=True)
class Identity:
    """A principal: a human user or a robot/service account."""

    username: str
    organization: str = ""
    is_robot: bool = False

    @property
    def urn(self) -> str:
        """Stable URN used in ACLs and ``visible_to`` lists."""
        return f"urn:repro:identity:{self.username}"


@dataclass(frozen=True)
class Token:
    """A bearer token bound to an identity, scopes, and expiry."""

    token_id: str
    identity: Identity
    scopes: frozenset[str]
    expires_at: float

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at

    def has_scope(self, scope: str) -> bool:
        return scope in self.scopes


class AuthClient:
    """The identity provider: registers identities, issues and validates
    tokens, supports revocation."""

    #: Default token lifetime (seconds); Globus access tokens live ~48 h,
    #: shortened here so expiry paths are exercised in simulated hours.
    DEFAULT_LIFETIME = 6 * 3600.0

    def __init__(self, lifetime: float = DEFAULT_LIFETIME) -> None:
        if lifetime <= 0:
            raise AuthError(f"token lifetime must be positive, got {lifetime}")
        self.lifetime = float(lifetime)
        self._identities: dict[str, Identity] = {}
        self._tokens: dict[str, Token] = {}
        self._revoked: set[str] = set()

    # -- identity management ------------------------------------------------
    def register_identity(
        self, username: str, organization: str = "", is_robot: bool = False
    ) -> Identity:
        """Create (or return the existing) identity for ``username``."""
        existing = self._identities.get(username)
        if existing is not None:
            return existing
        ident = Identity(username=username, organization=organization, is_robot=is_robot)
        self._identities[username] = ident
        return ident

    # -- token lifecycle ------------------------------------------------------
    def issue_token(
        self,
        identity: Identity,
        scopes: Iterable[str],
        now: float,
        lifetime: Optional[float] = None,
    ) -> Token:
        """Issue a bearer token for a registered identity."""
        if identity.username not in self._identities:
            raise AuthError(f"identity not registered: {identity.username!r}")
        scopes = frozenset(scopes)
        unknown = scopes - set(ALL_SCOPES)
        if unknown:
            raise AuthError(f"unknown scopes requested: {sorted(unknown)}")
        life = self.lifetime if lifetime is None else float(lifetime)
        tok = Token(
            token_id=secrets.token_hex(16),
            identity=identity,
            scopes=scopes,
            expires_at=float(now) + life,
        )
        self._tokens[tok.token_id] = tok
        return tok

    def validate(self, token: Token, scope: str, now: float) -> Identity:
        """Validate ``token`` for ``scope``, returning the authenticated
        identity.  Raises :class:`AuthError` / :class:`PermissionDenied`.
        """
        known = self._tokens.get(token.token_id)
        if known is None or known is not token:
            raise AuthError("token was not issued by this authority")
        if token.token_id in self._revoked:
            raise AuthError("token has been revoked")
        if token.is_expired(now):
            raise AuthError(
                f"token expired at t={token.expires_at:.0f} (now t={now:.0f})"
            )
        if not token.has_scope(scope):
            raise PermissionDenied(
                f"token for {token.identity.username!r} lacks scope {scope!r}"
            )
        return token.identity

    def revoke(self, token: Token) -> None:
        """Invalidate a token immediately."""
        self._revoked.add(token.token_id)
