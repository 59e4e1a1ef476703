"""Service-side authorization: scope checks and resource ACLs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import PermissionDenied
from .identity import AuthClient, Identity, Token

__all__ = ["ScopeAuthorizer", "AccessPolicy"]


class ScopeAuthorizer:
    """Validates that a token is live and carries a required scope.

    Each simulated service owns one of these, mirroring how each Globus
    service validates its own scope on every API call.
    """

    def __init__(self, client: AuthClient, scope: str) -> None:
        self._client = client
        self.scope = scope

    def authorize(self, token: Token, now: float) -> Identity:
        """Return the authenticated identity or raise."""
        return self._client.validate(token, self.scope, now)


@dataclass
class AccessPolicy:
    """Per-resource ACL: which identity URNs may read / write.

    The sentinel ``"public"`` in ``readers`` makes a resource readable by
    anyone — Globus Search uses the same convention for ``visible_to``.
    """

    readers: set[str] = field(default_factory=set)
    writers: set[str] = field(default_factory=set)

    PUBLIC = "public"

    def allow_read(self, *principals: "Identity | str") -> "AccessPolicy":
        self.readers.update(self._urns(principals))
        return self

    def allow_write(self, *principals: "Identity | str") -> "AccessPolicy":
        self.writers.update(self._urns(principals))
        return self

    def can_read(self, identity: Identity) -> bool:
        return (
            self.PUBLIC in self.readers
            or identity.urn in self.readers
            or self.can_write(identity)
        )

    def can_write(self, identity: Identity) -> bool:
        return identity.urn in self.writers

    def check_read(self, identity: Identity, what: str = "resource") -> None:
        if not self.can_read(identity):
            raise PermissionDenied(f"{identity.username!r} may not read {what}")

    def check_write(self, identity: Identity, what: str = "resource") -> None:
        if not self.can_write(identity):
            raise PermissionDenied(f"{identity.username!r} may not write {what}")

    @staticmethod
    def _urns(principals: Iterable["Identity | str"]) -> list[str]:
        out = []
        for p in principals:
            out.append(p.urn if isinstance(p, Identity) else str(p))
        return out
