"""Exception types raised across the pipeline.

Everything derives from AutopatchError so callers can catch package errors
without swallowing genuine bugs. Missing input files raise the builtin
FileNotFoundError.
"""

from __future__ import annotations


class AutopatchError(Exception):
    """Base class for all errors raised by this package."""


# --- corpus ---------------------------------------------------------------


class MalformedRecord(AutopatchError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateId(AutopatchError):
    def __init__(self, record_id: str, context: str):
        super().__init__(f"duplicate id {record_id!r} ({context})")
        self.record_id = record_id


class CountOutOfRange(AutopatchError):
    pass


class UnknownId(AutopatchError):
    pass


# --- CFG extraction -------------------------------------------------------


class NonUtf8Input(AutopatchError):
    pass


class AnalyzerNotFound(AutopatchError):
    pass


class AnalyzerFailed(AutopatchError):
    def __init__(self, exit_code: int, stderr: str):
        super().__init__(f"analyzer exited with {exit_code}: {stderr.strip()[:500]}")
        self.exit_code = exit_code
        self.stderr = stderr


class FunctionNotFound(AutopatchError):
    pass


class ParseError(AutopatchError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"dump line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


# --- retrieval ------------------------------------------------------------


class ProviderUnavailable(AutopatchError):
    pass


class EmptyInput(AutopatchError):
    pass


class DimMismatch(AutopatchError):
    pass


class ZeroVector(AutopatchError):
    pass


class EmptyIndex(AutopatchError):
    pass


# --- prompting ------------------------------------------------------------


class ModeArgumentMismatch(AutopatchError):
    pass


class ServiceError(AutopatchError):
    def __init__(self, status: int, body: str):
        super().__init__(f"service returned {status}: {body[:500]}")
        self.status = status
        self.body = body


class NoCodeBlockInResponse(AutopatchError):
    pass


class ReplayMiss(AutopatchError):
    def __init__(self, request_hash: str):
        super().__init__(f"no cassette entry for request {request_hash}")
        self.request_hash = request_hash


class CassetteCorrupt(AutopatchError):
    def __init__(self, path, line_no: int):
        super().__init__(f"{path}: line {line_no} is not a cassette entry")
        self.path = path
        self.line_no = line_no


# --- evaluation -----------------------------------------------------------


class EmptyGroundTruth(AutopatchError):
    pass


class BothEmpty(AutopatchError):
    pass


class CompilerNotFound(AutopatchError):
    pass


class CompileError(AutopatchError):
    def __init__(self, stderr: str):
        super().__init__(f"compilation failed: {stderr.strip()[:500]}")
        self.stderr = stderr


class BinaryNotFound(AutopatchError):
    pass


class NonpositiveBaseline(AutopatchError):
    pass
