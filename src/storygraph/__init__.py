"""Knowledge graphs from agile user stories.

Pipeline: parse annotated backlogs, extract a graph document per story,
assemble ontology-shaped documents, score them against the annotations, and
persist them to a graph store.
"""

from .errors import (
    BackendError,
    BacklogParseError,
    BacklogSchemaError,
    ConfigError,
    EvaluationError,
    ResponseParseError,
    SinkError,
    StoryGraphError,
)
from .model import (
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    OntologyViolation,
    RelKind,
    normalize_id,
    validate_ontology,
)

__version__ = "0.1.0"

__all__ = [
    "BackendError",
    "BacklogParseError",
    "BacklogSchemaError",
    "ConfigError",
    "EvaluationError",
    "ResponseParseError",
    "SinkError",
    "StoryGraphError",
    "GraphDocument",
    "GraphNode",
    "GraphRelationship",
    "NodeKind",
    "OntologyViolation",
    "RelKind",
    "normalize_id",
    "validate_ontology",
    "__version__",
]
