"""``python -m repro.lint`` — lint benchmark kernels across opt levels.

Compiles each selected kernel at each selected level (rebuilding the
kernel per level: compilation mutates the IR) and lints the result::

    python -m repro.lint                          # every kernel, every level
    python -m repro.lint --kernels BIT,PCM --levels o3,o3-cfm
    python -m repro.lint --sarif lint.sarif --json lint.json
    python -m repro.lint --fail-on warning        # strict lane
    python -m repro.lint --list-rules             # print the rule catalog
    python -m repro.lint --validate-melds         # + translation validation

Exit status is 1 when any diagnostic at or above ``--fail-on``
(default: error) was produced, 0 otherwise — the CI lint job is exactly
this invocation plus the SARIF artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

from .api import LINT_LEVELS, compile_at_level
from .diagnostics import LintReport, Severity
from .engine import all_rules, get_rule, run_lint
from .sarif import write_sarif


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Run the IR lint rules over benchmark kernels.")
    parser.add_argument(
        "--kernels", default="all",
        help="comma-separated kernel names from repro.kernels.ALL_BUILDERS "
             "(default: all)")
    parser.add_argument(
        "--levels", default="all",
        help=f"comma-separated opt levels out of {','.join(LINT_LEVELS)} "
             f"(default: all)")
    parser.add_argument(
        "--disable", default="",
        help="comma-separated rule ids to suppress")
    parser.add_argument(
        "--fail-on", default=Severity.ERROR, choices=list(Severity.ALL),
        help="exit non-zero when a diagnostic at/above this severity "
             "appears (default: error)")
    parser.add_argument(
        "--min-severity", default=Severity.WARNING,
        choices=list(Severity.ALL),
        help="lowest severity to print (default: warning)")
    parser.add_argument("--sarif", metavar="FILE",
                        help="write a SARIF 2.1.0 report")
    parser.add_argument("--json", metavar="FILE",
                        help="write the raw reports as JSON")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules (id, default severity, "
             "description) and exit")
    parser.add_argument(
        "--validate-melds", action="store_true",
        help="run the CFM pass with symbolic translation validation "
             "enabled at the o3-cfm level; verdicts feed the "
             "meld-legality audit (INEQUIVALENT melds become errors) "
             "and a per-kernel verdict summary is printed")
    return parser.parse_args(argv)


def _list_rules() -> int:
    from .engine import all_rules

    rules = all_rules()
    width = max(len(rule.id) for rule in rules)
    for rule in rules:
        print(f"{rule.id:<{width}}  {rule.severity:<7}  {rule.description}")
    print(f"{len(rules)} rule(s)")
    return 0


def _select(csv: str, universe, what: str) -> List[str]:
    if csv == "all":
        return list(universe)
    picked = [entry.strip() for entry in csv.split(",") if entry.strip()]
    unknown = [p for p in picked if p not in universe]
    if unknown:
        raise SystemExit(f"unknown {what}: {', '.join(unknown)} "
                         f"(available: {', '.join(universe)})")
    return picked


def run(argv=None) -> int:
    args = _parse_args(argv)
    if args.list_rules:
        return _list_rules()
    from repro.kernels import ALL_BUILDERS

    kernels = _select(args.kernels, ALL_BUILDERS, "kernels")
    levels = _select(args.levels, LINT_LEVELS, "levels")
    disabled = {get_rule(r.strip()).id for r in args.disable.split(",")
                if r.strip()}
    rules = [rule for rule in all_rules() if rule.id not in disabled]
    cfm_config = None
    if args.validate_melds:
        from repro.core import CFMConfig
        cfm_config = CFMConfig(validate=True)

    reports: List[Tuple[str, str, LintReport]] = []
    verdicts: Dict[str, int] = {}
    for name in kernels:
        for level in levels:
            case = ALL_BUILDERS[name]()
            function = case.function
            decisions = compile_at_level(function, level,
                                         cfm_config=cfm_config)
            report = run_lint(function, rules=rules, decisions=decisions)
            reports.append((name, level, report))
            for decision in decisions or []:
                verdict = getattr(decision, "validation", None)
                if verdict is not None:
                    verdicts[verdict] = verdicts.get(verdict, 0) + 1

    worst_hit = False
    shown = 0
    for name, level, report in reports:
        visible = [d for d in report.diagnostics
                   if Severity.at_least(d.severity, args.min_severity)]
        if any(Severity.at_least(d.severity, args.fail_on)
               for d in report.diagnostics):
            worst_hit = True
        if visible:
            shown += len(visible)
            print(f"== {name} @ {level}")
            print(report.render(min_severity=args.min_severity))

    total = sum(len(r.diagnostics) for _, _, r in reports)
    errors = sum(len(r.errors) for _, _, r in reports)
    warnings = sum(len(r.warnings) for _, _, r in reports)
    print(f"linted {len(kernels)} kernel(s) x {len(levels)} level(s): "
          f"{errors} error(s), {warnings} warning(s), "
          f"{total - errors - warnings} info")
    if args.validate_melds:
        summary = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items())) \
            or "no melds"
        print(f"meld translation validation: {summary}")

    if args.sarif:
        write_sarif(args.sarif, [r for _, _, r in reports])
        print(f"SARIF report written to {args.sarif}")
    if args.json:
        payload = {
            "version": 1,
            "reports": [{"kernel": name, "level": level, **report.as_dict()}
                        for name, level, report in reports],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"JSON report written to {args.json}")

    return 1 if worst_hit else 0


def main(argv=None) -> None:
    sys.exit(run(argv))
