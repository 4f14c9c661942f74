"""skylint — repo-native, flow-aware static analysis.

The paper's methodology (one architecture-oblivious control flow,
per-architecture hooks) and the process/async serving tier both rest
on contracts that Python will not enforce at runtime: hooks matching
their architecture, shared segments always unlinked on every path,
coroutines never reaching a blocking call through any chain of frames,
published snapshots never written, uint64 shifts provably in range.
This package enforces them statically — per-module AST rules plus
project-wide rules over a package call graph
(:mod:`repro.analysis.callgraph`) and a per-function CFG walker
(:mod:`repro.analysis.flow`) — with an incremental cache, SARIF
output and baseline management.  ``python -m repro.analysis`` is the
CLI and ``docs/ANALYSIS.md`` documents every rule.

Importing the rule modules here is what populates the registry.
"""

from repro.analysis import (  # noqa: F401
    blocking,
    determinism,
    dominance,
    domains,
    hooks,
    immutability,
    loops,
    shm,
)
from repro.analysis.base import (
    Allowlist,
    ModuleContext,
    ProjectRule,
    Rule,
    RULE_REGISTRY,
    Violation,
    all_rules,
    known_codes,
    module_name,
    register_rule,
)
from repro.analysis.baseline import Baseline
from repro.analysis.cache import LintCache
from repro.analysis.callgraph import CallGraph, ProjectContext
from repro.analysis.cli import main
from repro.analysis.flow import FlowGraph, ResourceSpec, track_resource
from repro.analysis.runner import AnalysisReport, analyse_paths, iter_python_files
from repro.analysis.sarif import sarif_document

__all__ = [
    "Allowlist",
    "AnalysisReport",
    "Baseline",
    "CallGraph",
    "FlowGraph",
    "LintCache",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "ResourceSpec",
    "Rule",
    "RULE_REGISTRY",
    "Violation",
    "all_rules",
    "analyse_paths",
    "iter_python_files",
    "known_codes",
    "main",
    "module_name",
    "register_rule",
    "sarif_document",
    "track_resource",
]
