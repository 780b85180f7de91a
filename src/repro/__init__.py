"""repro: DOEM and Chorel -- representing and querying changes in
semistructured data.

A from-scratch reproduction of Chawathe, Abiteboul & Widom,
"Representing and Querying Changes in Semistructured Data" (ICDE 1998):
the OEM data model, DOEM change representation, the Lorel and Chorel
query languages (native and translation-based backends), snapshot
differencing (OEMdiff/htmldiff), and the Query Subscription Service.

Quick start::

    from repro import OEMDatabase, OEMHistory, UpdNode, build_doem, ChorelEngine

    db = OEMDatabase(root="guide")
    price = db.create_node("p1", 10)
    db.add_arc("guide", "price", price)

    history = OEMHistory([("1Jan97", [UpdNode("p1", 20)])])
    doem = build_doem(db, history)

    engine = ChorelEngine(doem, name="guide")
    result = engine.run("select T, NV from guide.price<upd at T to NV>")

See ``examples/`` for runnable end-to-end scenarios and ``DESIGN.md`` for
the paper-to-module map.
"""

from .errors import (
    DiffError,
    DOEMError,
    EncodingError,
    EvaluationError,
    FrequencyError,
    InfeasibleDOEMError,
    InvalidChangeError,
    InvalidHistoryError,
    LexError,
    OEMError,
    ParseError,
    QSSError,
    QueryError,
    ReproError,
    SerializationError,
    SubscriptionError,
    TimestampError,
    TranslationError,
)
from .timestamps import NEG_INF, POS_INF, Timestamp, parse_timestamp
from .obs import (
    MetricsRegistry,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    metrics_registry,
    span,
)
from .oem import (
    COMPLEX,
    AddArc,
    Arc,
    ChangeOp,
    ChangeSet,
    CreNode,
    GraphBuilder,
    OEMDatabase,
    OEMHistory,
    RemArc,
    UpdNode,
)
from .oem.serialize import dumps, from_json, loads, to_json
from .doem import (
    Add,
    Cre,
    compact,
    DOEMDatabase,
    Rem,
    SnapshotCache,
    SnapshotCacheStats,
    Upd,
    build_doem,
    cached_snapshot_at,
    current_snapshot,
    decode_doem,
    encode_doem,
    encoded_history,
    is_feasible,
    original_snapshot,
    snapshot_at,
    snapshot_cache,
)
from .lorel import LorelEngine, QueryResult, format_query, parse_query
from .parallel import ParallelExecutor, WorkerPool
from .lorel.update import parse_update, plan_update
from .chorel import ChorelEngine, TranslatingChorelEngine, translate_query
from .chorel.optimize import IndexedChorelEngine
from .plan import (
    CompiledPlan,
    EngineStats,
    PassManager,
    compile_query,
    execute_plan,
)
from .triggers import Activation, Event, Rule, TriggerManager
from .lore import (
    AnnotationIndex,
    IndexStats,
    PathIndex,
    TimestampIndex,
)
from .diff import apply_diff, html_diff, html_to_oem, id_diff, match_snapshots, oem_diff
from .qss import (
    QSC,
    DOEMManager,
    FrequencySpec,
    Notification,
    QSSServer,
    Subscription,
    Wrapper,
)
from .sources import (
    LibrarySource,
    RestaurantGuideSource,
    Source,
    StaticSource,
    large_database,
    large_history,
    large_world,
    random_change_set,
    random_database,
    random_history,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "OEMError", "DOEMError", "QueryError", "QSSError",
    "InvalidChangeError", "InvalidHistoryError", "InfeasibleDOEMError",
    "EncodingError", "SerializationError", "LexError", "ParseError",
    "EvaluationError", "TranslationError", "TimestampError", "DiffError",
    "FrequencyError", "SubscriptionError",
    # time
    "Timestamp", "parse_timestamp", "NEG_INF", "POS_INF",
    # observability
    "Tracer", "Span", "get_tracer", "enable_tracing", "disable_tracing",
    "span", "MetricsRegistry", "metrics_registry",
    # OEM
    "OEMDatabase", "Arc", "COMPLEX", "GraphBuilder",
    "CreNode", "UpdNode", "AddArc", "RemArc", "ChangeOp",
    "ChangeSet", "OEMHistory",
    "dumps", "loads", "to_json", "from_json",
    # DOEM
    "DOEMDatabase", "Cre", "Upd", "Add", "Rem", "build_doem",
    "snapshot_at", "original_snapshot", "current_snapshot",
    "SnapshotCache", "SnapshotCacheStats", "snapshot_cache",
    "cached_snapshot_at",
    "encoded_history", "is_feasible", "encode_doem", "decode_doem",
    "compact",
    # query languages
    "LorelEngine", "QueryResult", "parse_query", "format_query",
    "parse_update", "plan_update",
    "ChorelEngine", "TranslatingChorelEngine", "translate_query",
    "IndexedChorelEngine",
    "CompiledPlan", "EngineStats", "PassManager",
    "compile_query", "execute_plan",
    # parallel execution
    "ParallelExecutor", "WorkerPool",
    # triggers (Section 7 future work)
    "TriggerManager", "Rule", "Event", "Activation",
    # lore
    "AnnotationIndex", "TimestampIndex", "PathIndex", "IndexStats",
    # diff
    "match_snapshots", "oem_diff", "apply_diff", "id_diff",
    "html_to_oem", "html_diff",
    # QSS
    "QSSServer", "QSC", "Subscription", "Notification", "FrequencySpec",
    "Wrapper", "DOEMManager",
    # sources
    "Source", "StaticSource", "RestaurantGuideSource", "LibrarySource",
    "random_database", "random_change_set", "random_history",
    "large_database", "large_history", "large_world",
    "__version__",
]
