"""Work cap for brute-force enumeration, so oracles fail loudly instead of hanging."""

from __future__ import annotations

# CLI `verify` on 104x104 `all`, the largest square grid under this budget (9,747,920
# witnesses), takes 1.9-3.0 s at 17 MB peak RSS (2 vCPUs, Python 3.11).
DEFAULT_ORACLE_BUDGET = 10_000_000


class OracleBudgetError(RuntimeError):
    """Raised when an enumeration would examine more candidates than allowed."""
