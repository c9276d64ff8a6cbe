"""Shared SARIF 2.1.0 emission for every analyzer in the repo.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
the lingua franca CI systems ingest for static-analysis findings.  Each
analyzer's :class:`~repro.diagnostics.Report` supplies its own tool
name, rule-metadata table, findings and run properties; the result
builder (:func:`report_to_sarif`), the ``sarifLog`` skeleton, the
reporting-descriptor table, and the severity mapping live here once.

Level mapping follows the SARIF ``result.level`` enumeration:
``error`` -> ``error``, ``warning`` -> ``warning``, ``info`` ->
``note``.  Every producer is validated against the same vendored
schema subset (``tests/data/sarif-2.1.0-subset.json``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional

if TYPE_CHECKING:
    from ..diagnostics import Report

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Diagnostic severity -> SARIF ``result.level``.
LEVEL_MAP = {"error": "error", "warning": "warning", "info": "note"}


def sarif_level(level: str) -> str:
    """The SARIF ``result.level`` for a repo diagnostic severity."""
    return LEVEL_MAP[level]


def rule_descriptors(
    codes: Iterable[str], metadata: Mapping[str, str]
) -> List[Dict[str, object]]:
    """Reporting descriptors for ``codes``, described via ``metadata``."""
    return [
        {
            "id": code,
            "shortDescription": {"text": metadata.get(code, code)},
        }
        for code in codes
    ]


def physical_location(
    uri: str, line: Optional[int] = None
) -> Dict[str, object]:
    """A SARIF ``physicalLocation`` for ``uri`` (1-based ``line``)."""
    location: Dict[str, object] = {"artifactLocation": {"uri": uri}}
    if line is not None:
        location["region"] = {"startLine": line}
    return location


def sarif_log(
    driver_name: str,
    results: List[Dict[str, object]],
    rules: List[Dict[str, object]],
    information_uri: Optional[str] = None,
    version: str = "1.0.0",
    properties: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One complete SARIF 2.1.0 ``sarifLog`` document with a single run."""
    driver: Dict[str, object] = {
        "name": driver_name,
        "version": version,
        "rules": rules,
    }
    if information_uri is not None:
        driver["informationUri"] = information_uri
    run: Dict[str, object] = {"tool": {"driver": driver}, "results": results}
    if properties:
        run["properties"] = properties
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def report_to_sarif(
    report: "Report", artifact_uri: Optional[str] = None
) -> Dict[str, object]:
    """One SARIF 2.1.0 ``sarifLog`` document for any analyzer's report.

    A finding that names a Datalog rule anchors to it as a *logical*
    location (rules carry no file/line provenance); a finding with its
    own ``path`` gets a ``physicalLocation`` region there, and the rest
    fall back to ``artifact_uri`` — the analyzed file — when the caller
    knows it.
    """
    diagnostics = report.sarif_diagnostics()
    codes = sorted({d.code for d in diagnostics})
    rule_index = {code: i for i, code in enumerate(codes)}
    results: List[Dict[str, object]] = []
    for diagnostic in diagnostics:
        result: Dict[str, object] = {
            "ruleId": diagnostic.code,
            "ruleIndex": rule_index[diagnostic.code],
            "level": sarif_level(diagnostic.level),
            "message": {"text": diagnostic.message},
        }
        location: Dict[str, object] = {}
        if diagnostic.rule is not None:
            location["logicalLocations"] = [
                {
                    "fullyQualifiedName": str(diagnostic.rule),
                    "kind": "declaration",
                }
            ]
        if diagnostic.path is not None:
            location["physicalLocation"] = physical_location(
                diagnostic.path, diagnostic.line
            )
        elif artifact_uri is not None:
            location["physicalLocation"] = physical_location(artifact_uri)
        if location:
            result["locations"] = [location]
        results.append(result)
    return sarif_log(
        report.SARIF_DRIVER,
        results,
        rule_descriptors(codes, report.RULE_METADATA),
        information_uri="https://dl.acm.org/doi/10.1145/38713.38725",
        properties=report.sarif_properties() or None,
    )


def merge_sarif_logs(logs: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Merge several single-run SARIF logs into one multi-run document.

    ``repro analyze --all`` runs every analyzer in the repo and ships
    the union to CI as one artifact; SARIF models that as one log with
    one ``runs[]`` entry per tool, so each analyzer keeps its own driver
    name, rule table, and run-level properties.  Run order follows the
    input order.
    """
    runs: List[Dict[str, object]] = []
    for log in logs:
        runs.extend(log.get("runs", []))
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": runs,
    }
