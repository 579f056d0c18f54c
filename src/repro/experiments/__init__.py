"""The Section 6.2 policy-operation microbenchmarks.

Every evaluation figure runs as a registered scenario through
:func:`repro.api.run` (or ``repro run-scenario``); what remains here is the
one measurement that is not a scenario: wall-clock latencies of the
clustering, class-selection and placement operations themselves.
"""

from repro.experiments.microbench import MicrobenchResult, run_microbenchmarks

__all__ = [
    "MicrobenchResult",
    "run_microbenchmarks",
]
