"""repro.lint — determinism-aware static analysis for JR-SND.

The reproduction's headline claims (bit-identical oracle parity, the
exact ``(l-1)·γ`` DoS bound, seeded chaos soaks) rest on conventions —
seeded RNG only, simulated time only, narrowed excepts, registered
metric names — that nothing structural used to enforce.  This package
is the enforcement: an AST rule engine (:mod:`repro.lint.engine`), the
JRS001–JRS007 per-file pack plus the JRS008–JRS011 cross-module pack
(:mod:`repro.lint.rules`), the project index and flow analyses behind
phase 2 (:mod:`repro.lint.graph`, :mod:`repro.lint.flow`), the
two-phase orchestrator with its incremental cache
(:mod:`repro.lint.project`, :mod:`repro.lint.cache`), human/JSON/SARIF
reporters (:mod:`repro.lint.report`, :mod:`repro.lint.sarif`), a
mechanical fixer (:mod:`repro.lint.fixes`), and the ``python -m
repro.lint`` CLI (:mod:`repro.lint.cli`) that CI runs as a required
gate.

Quick use::

    python -m repro.lint src/              # gate: exit 1 on errors
    python -m repro.lint src/ --jobs 4     # parallel phase-1 parsing
    python -m repro.lint src/ --fix        # rewrite literals to names.*
    python -m repro.lint --list-rules
"""

from repro.lint.engine import (
    Fix,
    LintConfig,
    ModuleContext,
    ProjectRule,
    Rule,
    Severity,
    Violation,
    lint_paths,
    lint_source,
)
from repro.lint.graph import ModuleSummary, ProjectIndex, summarize_module
from repro.lint.project import (
    ProjectLintResult,
    ProjectLintStats,
    lint_project,
)
from repro.lint.rules import (
    ALL_RULES,
    PROJECT_RULES,
    RULE_PACK_VERSION,
    RULES_BY_CODE,
    default_project_rules,
    default_rules,
)

__all__ = [
    "Fix",
    "LintConfig",
    "ModuleContext",
    "ModuleSummary",
    "ProjectIndex",
    "ProjectLintResult",
    "ProjectLintStats",
    "ProjectRule",
    "Rule",
    "Severity",
    "Violation",
    "lint_paths",
    "lint_project",
    "lint_source",
    "summarize_module",
    "ALL_RULES",
    "PROJECT_RULES",
    "RULE_PACK_VERSION",
    "RULES_BY_CODE",
    "default_project_rules",
    "default_rules",
]
