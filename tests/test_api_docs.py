"""Freshness check: docs/api.md must match the generator's output.

Fails when public API changes without regenerating the docs
(``python tools/gen_api_docs.py``).
"""

import pathlib
import runpy


def test_api_docs_up_to_date(tmp_path, monkeypatch):
    repo = pathlib.Path(__file__).parent.parent
    committed = (repo / "docs" / "api.md").read_text()

    # Re-run the generator against a scratch copy and compare.
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", repo / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    sections = list(module.HEADER)
    for package in module.PACKAGES:
        sections.append(module.describe(package))
    regenerated = "\n".join(sections)
    assert committed == regenerated, (
        "docs/api.md is stale; run: python tools/gen_api_docs.py"
    )
