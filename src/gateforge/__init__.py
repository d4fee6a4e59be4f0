"""gateforge: gate-level netlist generation, verification and benchmarking."""

from .netlist import (
    GateKind,
    Netlist,
    NetlistBuilder,
    Port,
    PortDir,
    StructuralReport,
    levelize,
    structural_report,
    validate,
)
from .parser import (
    ParseError,
    ParseResult,
    extract_netlist_block,
    parse,
    render,
)
from .simulator import (
    FunctionalSignature,
    SimOutcome,
    TestVector,
    functional_signature,
    pack_vectors,
    simulate_combinational,
    simulate_sequential,
    truth_table,
)
from .metrics import (
    DualReward,
    EvalResult,
    MetricWeights,
    SampleStats,
    TierVerdict,
    classify_tier,
    dual_reward,
    pass_at_k,
    sei_benchmark,
    sei_task,
)
from .boolopt import (
    BoolFunction,
    MinimalCover,
    OptimizationHint,
    min_gate_network,
    quine_mccluskey,
    suggest_optimizations,
)
from .knowledge import KnowledgeEntry, KnowledgeStore, RetrievalQuery
from .backends import ChatMessage, ModelBackend, SamplingParams, ScriptedBackend
from .orchestrator import (AgentMessage, RunConfig, TaskRun, run_benchmark,
                           run_task, verify_reference)
from .taskpack import (
    BenchmarkReport,
    TaskPack,
    builtin_task_packs,
    emit_report,
    load_report,
    load_task_pack,
)

__version__ = "0.1.0"

__all__ = [
    "GateKind", "Netlist", "NetlistBuilder", "Port", "PortDir",
    "StructuralReport", "levelize", "structural_report", "validate",
    "ParseError", "ParseResult", "extract_netlist_block",
    "parse", "render",
    "FunctionalSignature", "SimOutcome", "TestVector", "pack_vectors",
    "functional_signature", "simulate_combinational", "simulate_sequential", "truth_table",
    "DualReward", "EvalResult", "MetricWeights", "SampleStats", "TierVerdict",
    "classify_tier", "dual_reward", "pass_at_k", "sei_benchmark", "sei_task",
    "BoolFunction", "MinimalCover", "OptimizationHint", "min_gate_network",
    "quine_mccluskey", "suggest_optimizations",
    "KnowledgeEntry", "KnowledgeStore", "RetrievalQuery",
    "ChatMessage", "ModelBackend", "SamplingParams", "ScriptedBackend",
    "AgentMessage", "RunConfig", "TaskRun", "run_benchmark", "run_task",
    "BenchmarkReport", "TaskPack", "builtin_task_packs", "emit_report",
    "load_report", "load_task_pack", "verify_reference",
    "__version__",
]
