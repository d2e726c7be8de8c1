"""Relational substrate: schemas, facts, databases, edits, IO."""

from .database import ANY, Database
from .edits import Edit, EditKind, apply_edits, delete, insert
from .fork import DatabaseFork, ForkError
from .io import load_csv, load_json, save_csv, save_json
from .schema import RelationSchema, Schema, SchemaError
from .tuples import Constant, Fact, fact, facts

__all__ = [
    "ANY",
    "Constant",
    "Database",
    "DatabaseFork",
    "Edit",
    "EditKind",
    "Fact",
    "ForkError",
    "RelationSchema",
    "Schema",
    "SchemaError",
    "apply_edits",
    "delete",
    "fact",
    "facts",
    "insert",
    "load_csv",
    "load_json",
    "save_csv",
    "save_json",
]
