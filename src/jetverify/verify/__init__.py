"""Verification harness: named checks, result records, erratum ledger."""

from .base import (
    CheckContext, CheckResult, ERRATUM, FAIL, NORMAL_FORM,
    OrderCapExceeded, PASS, TEST_VECTOR, UNDECIDABLE,
)
from .errata import ErratumEntry, load_ledger

__all__ = [
    "CheckContext", "CheckResult", "ErratumEntry",
    "ERRATUM", "FAIL", "NORMAL_FORM", "PASS", "TEST_VECTOR",
    "UNDECIDABLE", "OrderCapExceeded",
    "load_ledger",
]
