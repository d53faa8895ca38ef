"""Shared fixtures: two real C-function samples with known reference fixes, and a
setter for evaluate's window."""

from __future__ import annotations

import pytest

from linefix import evaluation
from linefix.patchfmt import EditSpan, PatchSet
from linefix.prompting import VulnRecord
from linefix.source import SourceUnit

# A buffer-overflow fix in a video-codec activity routine: the reference
# replaces an unchecked copy (lines 11-12) with a plain memcpy pair.
VPX_BEFORE_LINES = (
    "static void calc_av_activity( VP8_COMP *cpi, int64_t activity_sum )",
    "{",
    "  if ACT_MEDIAN",
    "  {",
    "    unsigned int median;",
    "    unsigned int i,j;",
    "    unsigned int * sortlist;",
    "    unsigned int tmp;",
    "    CHECK_MEM_ERROR(sortlist,",
    "                    vpx_malloc(sizeof(unsigned int),",
    "                               cpi->common.MBs));",
    "    vpx_memcpy( sortlist, cpi->mb_activity_map,",
    "               sizeof(unsigned int) * cpi->common.MBs );",
    "    for ( i = 1; i < cpi->common.MBs; i ++ )",
    "    {",
    "      ...",
)

VPX_REFERENCE_BODY = (
    " memcpy( sortlist, cpi->mb_activity_map,",
    "sizeof(unsigned int) * cpi->common.MBs );",
)

VPX_REFERENCE_PATCH_TEXT = (
    "10-13<MID> memcpy( sortlist, cpi->mb_activity_map,\n"
    "sizeof(unsigned int) * cpi->common.MBs );"
)

# Same edit with whitespace nudged: a model output that fixes the bug but is
# not byte-identical to the reference.
VPX_PREDICTED_PATCH_TEXT = (
    "10-13<MID> memcpy( sortlist, cpi->mb_activity_map,\n"
    " sizeof(unsigned int) * cpi->common.MBs );"
)

VPX_CWE_ID = "CWE-119"
VPX_CWE_DESCRIPTION = (
    "The product performs operations on a memory buffer, but it can read from "
    "or write to a memory location that is outside of the intended boundary "
    "of the buffer."
)
VPX_VULN_LINES = (11,)

VPX_PROMPT_PREFIX = (
    "[INST]11 CWE-119 The product performs operations on a memory buffer, "
    "but it can read from or write to a memory location that is outside of "
    "the intended boundary of the buffer.\n"
    "0 static void calc_av_activity( VP8_COMP *cpi, int64_t activity_sum )\n"
    "1 {"
)

# A null-check fix in an audio-decoder frame routine: the reference inserts
# one guard line after the window lookup.
STB_BEFORE_LINES = (
    "static int vorbis_finish_frame(stb_vorbis *f, int len, int left, int right)",
    "{",
    "    int prev,i,j;",
    "    if (f->previous_length) {",
    "        int i,j, n = f->previous_length;",
    "        float *w = get_window(f, n);",
    "        for (i=0; i < f->channels; ++i) {",
    "            for (j=0; j < n; ++j)",
    "                f->channel_buffers[i][left+j] =",
    "                    f->channel_buffers[i][left+j]*w[ j ] +",
    "                    f->previous_window[i][ j]*w[n-1-j];",
    "        }",
    "    }",
    "    prev = f->previous_length;",
    "    f->previous_length = len - right;",
    "    for (i=0; i < f->channels; ++i)",
    "        for (j=0; right+j < len; ++j)",
    "            f->previous_window[i][j] = f->channel_buffers[i][right+j];",
    "    if (!prev)",
    "        return 0;",
    "    if (len < right) right = len;",
    "    f->samples_output += right-left;",
    "    return right - left;",
    "}",
)

STB_INSERTED_LINE = "   if (w == NULL) return 0;"
STB_INSERT_AFTER = 5  # the get_window line


@pytest.fixture
def vpx_source() -> SourceUnit:
    return SourceUnit(VPX_BEFORE_LINES, had_trailing_newline=True)


@pytest.fixture
def vpx_reference_patch() -> PatchSet:
    return PatchSet((EditSpan(10, 13, VPX_REFERENCE_BODY),))


@pytest.fixture
def vpx_record(vpx_source, vpx_reference_patch) -> VulnRecord:
    return VulnRecord(
        id="vpx-activity-1",
        cwe_id=VPX_CWE_ID,
        cwe_description=VPX_CWE_DESCRIPTION,
        vuln_lines=VPX_VULN_LINES,
        source=vpx_source,
        reference_patch=vpx_reference_patch,
    )


@pytest.fixture
def stb_before() -> SourceUnit:
    return SourceUnit(STB_BEFORE_LINES, had_trailing_newline=True)


@pytest.fixture
def stb_after(stb_before) -> SourceUnit:
    lines = list(stb_before.lines)
    lines.insert(STB_INSERT_AFTER + 1, STB_INSERTED_LINE)
    return SourceUnit(tuple(lines), had_trailing_newline=True)


@pytest.fixture
def window(monkeypatch):
    """Sets evaluate's window to ``n`` records, whatever the backend's max_in_flight."""

    def set_window(n: int) -> None:
        monkeypatch.setattr(evaluation, "WINDOW", n)
        monkeypatch.setattr(evaluation, "ROUNDS", 0)

    return set_window
