"""Ranked enumeration of full conjunctive queries over tree decompositions."""

from .analysis import (
    FeasibilityReport,
    analyze,
    check_coordinate_dichotomy,
    check_edge_dichotomy,
    component_diameters,
    diameter,
    gen_antichain_product,
    gen_diameter4_instance,
    gen_threepath,
)
from .cursor import RankedCursor
from .data import Database, Relation, Table, load_csv, load_vertex_weights, semijoin
from .decomposition import (
    DecompNode,
    TreeDecomposition,
    gyo_join_tree,
    load_decomposition,
    parse_decomposition,
)
from .errors import (
    CyclicQueryError,
    DecompositionError,
    EngineInvariantError,
    IngestError,
    OracleCapError,
    ProbeCapError,
    QueryParseError,
    RankJoinError,
    SchemaError,
    WeightError,
)
from .oracle import brute_force_ranked
from .preprocess import PreparedQuery, full_reducer, initialize_queues, materialize_bags, prepare
from .query import Atom, ConjunctiveQuery, UnionQuery, parse_query
from .ranking import (
    RankingFunction,
    ScoreModel,
    check_ranking,
    direct_score,
    parse_ranking,
    probe_decomposable,
)
from .result import OutputTuple, format_record
from .union import UnionCursor

__version__ = "0.1.0"
