"""The numeric search ``optimize`` runs, on a loss that has a closed form.

The tests cross-check each closed-form action against the search.
``searched`` runs ``optimize`` itself with ``engine._closed_form`` answering
None for that one call, so the start, the bracket and the choice of Brent or
golden section are ``optimize``'s own, as they are for a loss with no closed
form.
"""

from unittest import mock

from bayesdecide import engine


def searched(loss, post):
    """``optimize(loss, post)`` by its numeric search, never a closed form."""
    with mock.patch.object(engine, "_closed_form", return_value=None):
        return engine.optimize(loss, post)
