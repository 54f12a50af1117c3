"""Per-tenant token quotas (classic token buckets).

Admission control for the serve layer: each tenant owns a bucket that
refills at ``rate`` tokens/second up to ``burst`` capacity; a request
spends tokens equal to its whitespace token count.  A request that
can't be paid for is rejected with a non-retryable-now ``quota``
response (the client may retry after backoff — unlike ``shed``, the
rejection is budget, not load).

The clock is injectable, so quota decisions are deterministic under
test: advance a fake clock, observe exact refill amounts.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping


def count_tokens(text: str) -> int:
    """Whitespace token count — the unit quotas and batch token
    targets are denominated in (cheap, tokenizer-independent)."""
    return len(text.split())


class TokenBucket:
    """One tenant's budget: ``rate`` tokens/second, ``burst`` cap."""

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("quota rate and burst must be > 0")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at: float | None = None

    def admit(self, tokens: int, now: float) -> bool:
        if self.updated_at is not None:
            elapsed = max(0.0, now - self.updated_at)
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if tokens > self.tokens:
            return False
        self.tokens -= tokens
        return True


def parse_quota_spec(spec: str) -> tuple[str | None, float, float]:
    """Parse ``[tenant=]rate:burst`` (CLI form).

    Returns ``(tenant_or_None, rate, burst)``; ``rate:burst`` alone
    configures the default quota applied to unlisted tenants.
    """
    tenant: str | None = None
    body = spec
    if "=" in spec:
        tenant, body = spec.split("=", 1)
        tenant = tenant.strip()
        if not tenant:
            raise ValueError(f"empty tenant in quota spec {spec!r}")
    try:
        rate_text, burst_text = body.split(":", 1)
        rate, burst = float(rate_text), float(burst_text)
    except ValueError as exc:
        raise ValueError(
            f"quota spec {spec!r} must be [tenant=]rate:burst") from exc
    return tenant, rate, burst


class QuotaManager:
    """Thread-safe token buckets keyed by tenant.

    ``quotas`` maps tenant -> (rate, burst); ``default`` (rate, burst)
    applies to tenants not listed, each getting its *own* bucket on
    first sight.  With neither, every request is admitted — quotas are
    opt-in.
    """

    def __init__(self, quotas: Mapping[str, tuple[float, float]]
                 | None = None,
                 default: tuple[float, float] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._default = default
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._configured: dict[str, tuple[float, float]] = dict(
            quotas or {})
        self.rejections = 0

    def configure(self, tenant: str, rate: float, burst: float) -> None:
        with self._lock:
            self._configured[tenant] = (rate, burst)
            self._buckets.pop(tenant, None)

    def admit(self, tenant: str, tokens: int) -> bool:
        """Spend ``tokens`` from the tenant's bucket; False = reject."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                spec = self._configured.get(tenant, self._default)
                if spec is None:
                    return True
                bucket = TokenBucket(*spec)
                self._buckets[tenant] = bucket
            admitted = bucket.admit(tokens, self._clock())
            if not admitted:
                self.rejections += 1
            return admitted

    def refund(self, tenant: str, tokens: int) -> None:
        """Return ``tokens`` an admitted request never used (it was
        shed after being paid for)."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is not None:
                bucket.tokens = min(bucket.burst, bucket.tokens + tokens)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Current bucket levels per tenant (for the stats op)."""
        with self._lock:
            return {tenant: {"rate": bucket.rate, "burst": bucket.burst,
                             "tokens": round(bucket.tokens, 6)}
                    for tenant, bucket in sorted(self._buckets.items())}
