"""Synthetic data generation."""

from .bp_records import (
    BpMode,
    BpRecord,
    BpUnit,
    LONG_TERM_UNIT_S,
    PPG_RATE_HZ,
    SHORT_TERM_UNIT_S,
    bp_record,
    simulate_bp_records,
)
from .profiles import (
    COHORT_CORTISOL_MEANS_UGDL,
    COHORT_CORTISOL_T1_SD_UGDL,
    SessionScript,
    SyntheticProfile,
    default_session_script,
    default_session_timeline,
    generate_cohort,
)
from .stress_session import cohort_sessions, simulate_session, stress_envelope, subject_session

__all__ = [
    "BpMode",
    "BpRecord",
    "BpUnit",
    "COHORT_CORTISOL_MEANS_UGDL",
    "COHORT_CORTISOL_T1_SD_UGDL",
    "LONG_TERM_UNIT_S",
    "PPG_RATE_HZ",
    "SHORT_TERM_UNIT_S",
    "SessionScript",
    "SyntheticProfile",
    "bp_record",
    "cohort_sessions",
    "default_session_script",
    "default_session_timeline",
    "generate_cohort",
    "simulate_bp_records",
    "simulate_session",
    "stress_envelope",
    "subject_session",
]
