"""CheckRunner — one front door for every static analysis, plus the gate.

:class:`CheckRunner` exposes the model checks (scheme/spec level) and the
code checks (determinism and unit lints) behind one object that
filters by rule id and renders one
:class:`~repro.staticcheck.diagnostics.CheckReport`.  The determinism
lint's hints walk one call graph built per invocation.

:func:`validate_spec` is the enforcement point wired into
:mod:`repro.experiments.api`: it runs the model checks for a
:class:`~repro.experiments.runner.RunSpec` *before* any worker spawns,
raising :class:`~repro.staticcheck.diagnostics.StaticCheckError` on
blocking findings.  The mode ladder (argument > ``REPRO_STATICCHECK``
env > default):

``off``
    Skip entirely (emergency hatch; also spelled ``0`` / ``false``).
``warn`` (default)
    Errors raise; warnings surface once via ``warnings.warn``.
``strict``
    Warnings raise too (also spelled ``error``).

Validation is memoized per distinct model signature, so sweeping 500
specs over 8 schemes costs 8 analyses, not 500.
"""

from __future__ import annotations

import os
import warnings
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.schemes import scheme_names
from repro.staticcheck.diagnostics import (
    CheckReport,
    Severity,
    StaticCheckError,
    StaticCheckWarning,
)
from repro.staticcheck.modelcheck import ModelInputs, check_model

#: Environment variable controlling the pre-run gate.
STATICCHECK_ENV = "REPRO_STATICCHECK"

_MODES = ("off", "warn", "strict")

#: Rule catalog: id -> (family, one-line description).  The ids are the
#: stable public contract — tests and ``--rule`` filters key on them.
RULES: Dict[str, tuple] = {
    "cdg-cycle": (
        "model",
        "escape-network channel-dependency graph must be acyclic "
        "(Duato's protocol)",
    ),
    "cdg-reach": (
        "model",
        "every CC->MC and MC->CC pair must be reachable along escape hops "
        "on the surviving graph",
    ),
    "cdg-escape-vc": (
        "model",
        "the escape VC must admit every escape_port direction it is "
        "routed through",
    ),
    "eq1-speedup": (
        "model",
        "injection speedup covers the supplied packet rate: "
        "S >= InjRate_pkt x N_flits (Eq. 1)",
    ),
    "eq2-bound": (
        "model",
        "injection speedup within S <= min(N_out, N_VC) (Eq. 2)",
    ),
    "mc-degree": (
        "model",
        "per-MC router degree caps the effective speedup below the "
        "mesh-wide Eq. 2 bound",
    ),
    "split-queues": (
        "model",
        "split NI queue count matches the injection VC count "
        "(hard-wired one-per-VC)",
    ),
    "credit-rtt": (
        "model",
        "VC buffer depth covers the credit round trip of the link",
    ),
    "vc-class": (
        "model",
        "adaptive routing keeps a separate escape VC (num_vcs >= 2)",
    ),
    "starvation": (
        "model",
        "starvation-promotion threshold is neither trivial nor "
        "unreachable for the run horizon",
    ),
    "inert-knob": (
        "model",
        "explicit ARI overrides must affect the selected scheme",
    ),
    "config-resolve": (
        "model",
        "spec resolves to a constructible configuration "
        "(mesh/placement/routing/overlay/fault plan)",
    ),
    "det-random": (
        "code",
        "no global-RNG random calls in simulator code (seeded "
        "random.Random only)",
    ),
    "det-wallclock": (
        "code",
        "no wall-clock reads (time.time/perf_counter/datetime.now) in "
        "simulator code",
    ),
    "det-set-iter": (
        "code",
        "no iteration over unordered sets feeding simulation decisions",
    ),
    "det-float-cycle": (
        "code",
        "no float accumulation in cycle arithmetic",
    ),
    "unit-mix": (
        "code",
        "no mixed-dimension arithmetic (bits/bytes/flits/packets/cycles "
        "inferred via dataflow; convert explicitly or annotate '# unit:')",
    ),
}


def rule_ids(family: Optional[str] = None) -> List[str]:
    """All rule ids, optionally restricted to ``"model"`` or ``"code"``."""
    return [
        rid
        for rid, (fam, _desc) in RULES.items()
        if family is None or fam == family
    ]


class CheckRunner:
    """Runs static analyses and collects filtered diagnostics.

    ``rules`` restricts which rule ids may appear in reports (None = all);
    ``strict`` marks warnings as blocking in :meth:`failed`.
    """

    def __init__(
        self,
        rules: Optional[Iterable[str]] = None,
        strict: bool = False,
    ) -> None:
        if rules is not None:
            rules = list(rules)
            unknown = sorted(set(rules) - set(RULES))
            if unknown:
                raise ValueError(
                    f"unknown rule id(s): {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(RULES))}"
                )
        self.rules = rules
        self.strict = strict

    def _filtered(self, report: CheckReport) -> CheckReport:
        return report.filter(self.rules)

    # -- model checks --------------------------------------------------------
    def check_inputs(self, inputs: ModelInputs) -> CheckReport:
        """Model checks for one resolved configuration."""
        return self._filtered(check_model(inputs))

    def check_spec(self, spec) -> CheckReport:
        """Model checks for a :class:`~repro.experiments.runner.RunSpec`."""
        return self.check_inputs(ModelInputs.from_spec(spec))

    def check_scheme(self, name: str, **inputs_kwargs) -> CheckReport:
        """Model checks for one registered scheme under default geometry."""
        return self.check_inputs(ModelInputs(scheme=name, **inputs_kwargs))

    def check_all_schemes(self, **inputs_kwargs) -> CheckReport:
        """Model checks for every scheme registered in ``core/schemes.py``."""
        report = CheckReport()
        for name in scheme_names():
            report.extend(self.check_scheme(name, **inputs_kwargs))
        return self._filtered(report)

    # -- code checks ---------------------------------------------------------
    def _code_reports(self, items: Sequence[tuple]) -> CheckReport:
        """All code lints over ``(path, text)`` pairs.

        One call graph (with the component receiver hints) gives the
        det lint's ``reached via`` caller chains across modules.
        """
        from repro.staticcheck import detlint, unitlint
        from repro.staticcheck.callgraph import RECEIVER_HINTS, build_call_graph

        graph = build_call_graph(items, receiver_hints=RECEIVER_HINTS)
        report = CheckReport()
        for path, text in items:
            report.extend(detlint.lint_source(text, path, graph=graph))
            report.extend(unitlint.lint_source(text, path))
        return self._filtered(report)

    def check_source(self, text: str, path: str = "<string>") -> CheckReport:
        """All code lints (det/unit) over one module."""
        return self._code_reports([(path, text)])

    def check_paths(self, paths: Sequence[str]) -> CheckReport:
        """All code lints over files/directories of Python code."""
        from repro.staticcheck import detlint

        items = []
        for path in detlint.iter_python_files(paths):
            with open(path, encoding="utf-8") as fh:
                items.append((path, fh.read()))
        return self._code_reports(items)

    # -- verdict -------------------------------------------------------------
    def failed(self, report: CheckReport) -> bool:
        return report.failed(strict=self.strict)


# -- the pre-run gate ---------------------------------------------------------

def resolve_mode(mode: Optional[str] = None) -> str:
    """Gate mode: explicit argument > REPRO_STATICCHECK env > ``warn``."""
    raw = mode if mode is not None else os.environ.get(STATICCHECK_ENV, "")
    raw = raw.strip().lower()
    if raw in ("", "warn", "1", "true", "on", "default"):
        return "warn"
    if raw in ("off", "0", "false", "none"):
        return "off"
    if raw in ("strict", "error", "errors", "2"):
        return "strict"
    raise ValueError(
        f"bad static-check mode {raw!r}; expected one of {_MODES}"
    )


@lru_cache(maxsize=256)
def _cached_model_report(inputs: ModelInputs) -> CheckReport:
    return check_model(inputs)


def clear_validation_cache() -> None:
    """Drop memoized model reports (tests; scheme registry mutation)."""
    _cached_model_report.cache_clear()


def validate_spec(spec, mode: Optional[str] = None) -> CheckReport:
    """Gate one RunSpec: model-check it and enforce the resolved mode.

    Returns the (possibly empty) report; raises
    :class:`StaticCheckError` when findings are blocking for the mode.
    Called by :mod:`repro.experiments.api` before any simulation work.
    """
    resolved = resolve_mode(mode)
    if resolved == "off":
        return CheckReport()
    report = _cached_model_report(ModelInputs.from_spec(spec))
    if report.failed(strict=(resolved == "strict")):
        threshold = (
            Severity.WARNING if resolved == "strict" else Severity.ERROR
        )
        raise StaticCheckError(report.at_least(threshold))
    if report.warnings:
        warnings.warn(
            "static check: " + "; ".join(
                d.format() for d in report.warnings
            ),
            StaticCheckWarning,
            stacklevel=2,
        )
    return report
