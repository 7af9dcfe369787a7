"""Verification harness: named checks, result records, erratum ledger."""

from .base import (
    CheckContext, CheckResult, ERRATUM, FAIL, NORMAL_FORM,
    OrderCapExceeded, PASS, TEST_VECTOR, UNDECIDABLE,
)
from .errata import ErratumEntry, load_ledger
from .flows import (
    check_conservation, check_reciprocal_system_map, check_zero_curvature,
)

__all__ = [
    "CheckContext", "CheckResult", "ErratumEntry",
    "ERRATUM", "FAIL", "NORMAL_FORM", "PASS", "TEST_VECTOR",
    "UNDECIDABLE", "OrderCapExceeded",
    "check_conservation", "check_reciprocal_system_map",
    "check_zero_curvature",
    "load_ledger",
]
