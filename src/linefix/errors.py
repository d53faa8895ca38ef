"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LinefixError(Exception):
    """Base class for all package errors."""


# --- patch format ---------------------------------------------------------


class PatchFormatError(LinefixError):
    """A patch text or span violates the patch grammar."""


class MalformedHeader(PatchFormatError):
    """Span fragment does not start with ``INT-INT<MID>``."""


class MalformedBody(PatchFormatError):
    """Span body contains a reserved token or a CR character."""


class NonIncreasingSpan(PatchFormatError):
    """Span has ``line_bef >= line_af``."""


class BelowSentinel(PatchFormatError):
    """Span has ``line_bef < -1``."""


class ConflictingSpans(PatchFormatError):
    """Two spans duplicate or overlap each other."""


# --- application / records -------------------------------------------------


class InvalidPatch(LinefixError):
    """Patch failed validation against the source it is applied to."""


class MalformedPrompt(LinefixError):
    """Prompt text does not follow the instruction layout."""


class InvalidRecord(LinefixError):
    """Record violates an invariant.

    ``prompting.VulnRecord.validate`` raises it when a record is constructed,
    whatever built it, for:

    - a CWE id not of the form ``CWE-<digits>``;
    - an LF in the CWE description;
    - a CR in a source line, which no patch body may carry, so no fix could
      rewrite that line;
    - a reserved token (``[INST]``, ``[/INST]``, ``<MID>``, ``<sep>``,
      ``<S2SV_StartBug>``, ``<S2SV_EndBug>``) in the description, in a source
      line or in a reference-patch body line;
    - a reference patch that is empty, has no lossless text form or does
      not validate against the source;
    - vuln lines out of range or not strictly ascending.

    Ingest also raises it for a raw pair whose before and non-empty after
    differ in their trailing newline, which a line-addressed patch cannot
    carry.
    """


# --- dataset ---------------------------------------------------------------


class SchemaError(LinefixError):
    """Input file is missing a required field or cannot be decoded."""

    def __init__(self, message: str, *, path: str | None = None, line_no: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}:"
        if line_no is not None:
            where = f"{where}{line_no}:"
        super().__init__(f"{where} {message}" if where else message)
        self.path = path
        self.line_no = line_no


# --- inference backend ------------------------------------------------------


class GenerationError(LinefixError):
    """Base class for completion-backend failures.

    ``attempts`` counts the requests ``client.generate`` made for the sample,
    the failing one included.
    """

    attempts: int = 1


class GenerationTimeout(GenerationError):
    """Backend did not answer within the configured timeout."""


class TransportError(GenerationError):
    """Connection-level failure talking to the backend."""


class BackendError(GenerationError):
    """Backend answered with a non-success HTTP ``status``."""

    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


class MalformedResponse(GenerationError):
    """Backend answer could not be decoded into candidates."""


class UnknownSampleId(GenerationError):
    """Mock script has no entry for the requested sample."""


class CapabilityError(GenerationError):
    """Backend does not support the requested decoding strategy."""


# --- evaluation --------------------------------------------------------------


class EmptyEvaluation(ValueError, LinefixError):
    """Evaluation was asked to score an empty record set; a usage error, so a ValueError."""
