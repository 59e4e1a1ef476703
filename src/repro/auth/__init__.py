"""Globus-Auth-style identity and authorization substrate.

The paper's services (Transfer, Compute, Search) all sit behind Globus
Auth: OAuth tokens scoped per service, checked on every request.  This
package reproduces that structure — identities, scoped bearer tokens with
expiry, and authorizers that services consult — so that every simulated
service call carries (and validates) credentials exactly like the real
data flows do.
"""

from .identity import AuthClient, Identity, Token
from .authorizer import AccessPolicy, ScopeAuthorizer

__all__ = [
    "Identity",
    "Token",
    "AuthClient",
    "ScopeAuthorizer",
    "AccessPolicy",
]
