"""Datalog frontend: parsing, validation, and stratification.

The dialect is pure Datalog extended with stratified negation and
aggregation (MIN/MAX/SUM/COUNT/AVG in rule heads), the language fragment
of the paper's Section 3.
"""

from repro.datalog.analyzer import AnalyzedProgram, ProgramFeatures, analyze_program
from repro.datalog.ast import (
    AggTerm,
    Atom,
    Comparison,
    Constant,
    Program,
    Rule,
    Variable,
    Wildcard,
)
from repro.datalog.parser import parse_program, parse_rule

__all__ = [
    "AggTerm",
    "Atom",
    "Comparison",
    "Constant",
    "Program",
    "Rule",
    "Variable",
    "Wildcard",
    "parse_program",
    "parse_rule",
    "analyze_program",
    "AnalyzedProgram",
    "ProgramFeatures",
]
