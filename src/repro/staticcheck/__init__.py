"""repro.staticcheck — pre-simulation model verification + determinism lint.

Proves, before a single cycle runs, the properties the simulator
otherwise only observes at runtime: escape-network deadlock freedom
(channel-dependency-graph acyclicity + reachability, per fault epoch),
the paper's Eq. 1 / Eq. 2 injection-speedup sizing, queue/credit/VC
partition sanity — plus AST/dataflow code lints over the simulator
sources and an interprocedural taint analysis that proves cache-key
soundness.  See ``docs/staticcheck.md`` for the rule catalog and
the ``repro check`` CLI subcommand for the command-line front end.
"""

from repro.staticcheck.baseline import DEFAULT_BASELINE
from repro.staticcheck.baseline import apply as apply_baseline
from repro.staticcheck.baseline import load as load_baseline
from repro.staticcheck.baseline import save as save_baseline
from repro.staticcheck.callgraph import (
    CallGraph,
    CallSite,
    FunctionNode,
    build_call_graph,
)
from repro.staticcheck.flow import (
    CFG,
    BasicBlock,
    BranchCondition,
    ForwardAnalysis,
    build_cfg,
)
from repro.staticcheck.cdg import (
    EscapeGraph,
    EscapeTrace,
    all_pairs_unreachable,
    build_escape_cdg,
    channel_name,
    trace_escape,
)
from repro.staticcheck.diagnostics import (
    CheckReport,
    Diagnostic,
    Severity,
    StaticCheckError,
    StaticCheckWarning,
)
from repro.staticcheck.modelcheck import ModelInputs, check_model
from repro.staticcheck.runner import (
    RULES,
    STATICCHECK_ENV,
    CheckRunner,
    clear_validation_cache,
    resolve_mode,
    rule_ids,
    validate_spec,
)

__all__ = [
    "CFG",
    "DEFAULT_BASELINE",
    "RULES",
    "STATICCHECK_ENV",
    "BasicBlock",
    "BranchCondition",
    "CallGraph",
    "CallSite",
    "CheckReport",
    "CheckRunner",
    "Diagnostic",
    "ForwardAnalysis",
    "FunctionNode",
    "EscapeGraph",
    "EscapeTrace",
    "ModelInputs",
    "Severity",
    "StaticCheckError",
    "StaticCheckWarning",
    "all_pairs_unreachable",
    "apply_baseline",
    "build_call_graph",
    "build_cfg",
    "build_escape_cdg",
    "channel_name",
    "check_model",
    "clear_validation_cache",
    "load_baseline",
    "save_baseline",
    "resolve_mode",
    "rule_ids",
    "trace_escape",
    "validate_spec",
]
