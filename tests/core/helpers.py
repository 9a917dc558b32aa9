"""Shared helpers for the repro.core tests."""


def routed_tokens(binding):
    """Record every emit token ``binding`` routes, in routing order."""
    routed = []
    route = binding._route_token

    def record(token):
        routed.append(token)
        route(token)

    binding._route_token = record
    return routed
