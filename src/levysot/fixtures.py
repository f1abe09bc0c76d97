"""The pure-jump family document, read from ``fixtures/pure_jump_family.json``.

The flagship documents live only in ``fixtures/*.json``, read by
``cli.fixture_doc``.  ``perfbench/tests/test_checks.py`` still imports this
name; the module goes once that test reads the file itself."""

from .cli import fixture_doc


def pure_jump_family_doc() -> dict:
    return fixture_doc("pure_jump_family.json")
