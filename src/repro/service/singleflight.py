"""Single-flight coalescing and per-key scoped locks.

The paper's bargain is that the online stage is *cheap* — linear-time
materialization per target — but "cheap" still isn't free, and under
concurrent load two classic serialization bugs eat the worker pool:

* **cache stampede** — N concurrent misses for the same
  :class:`~repro.service.cache.CacheKey` do N redundant compiles.  The
  fix is *single-flight* (à la Go's ``golang.org/x/sync/singleflight``):
  the first requester becomes the **leader** and compiles; every
  concurrent requester for the same key becomes a **follower** that
  waits on the leader's :class:`Flight` and shares its
  :class:`~repro.jit.compilers.CompiledKernel`.  A flight settles a
  :class:`concurrent.futures.Future`, so service threads block in
  :meth:`Flight.wait` while the gateway's asyncio tasks await the same
  future.  The gateway's pre-admission batch window is a second
  :class:`SingleFlight` table, keyed by request shape, whose flights
  are served by a loop-owned window task rather than by a waiter.
* **global critical section** — one service-wide lock around compilation
  means the pool adds zero compile throughput.  The fix is *scoped*
  locking: :class:`KeyedLocks` hands out one mutex per key so distinct
  kernels/targets proceed genuinely in parallel and only identical work
  serializes.

Both primitives are deliberately tiny, stdlib-only, and deterministic
(no wall-clock state), so the seeded chaos campaigns stay reproducible.
"""

from __future__ import annotations

import copy
import math
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

__all__ = ["Flight", "SingleFlight", "KeyedLocks"]


def _follower_copy(exc: BaseException) -> BaseException:
    """A per-follower clone of the leader's exception.

    Re-raising one shared exception object from N follower threads is a
    data race on the object itself: every ``raise`` rewrites
    ``__traceback__`` (and ``__context__`` when raised inside an
    ``except`` block), so concurrent followers corrupt each other's
    tracebacks.  Each follower therefore raises its own shallow copy,
    chained (``__cause__``) to the original so the leader's traceback
    stays reachable — and untouched.

    Exception classes with custom ``__init__`` signatures (e.g.
    ``OverloadError(depth, limit)``) can't be rebuilt via
    ``type(exc)(*exc.args)``; allocate without ``__init__`` and copy
    ``args`` plus instance state instead.
    """
    cls = type(exc)
    try:
        clone = cls.__new__(cls)
        clone.args = exc.args
        state = getattr(exc, "__dict__", None)
        if state:
            clone.__dict__.update(state)
    except Exception:
        try:
            clone = copy.copy(exc)
        except Exception:
            return exc  # last resort: the shared object beats no error
    clone.__cause__ = exc
    clone.__suppress_context__ = True
    return clone


class Flight:
    """One in-flight computation: a future plus its window state.

    The leader calls exactly one of :meth:`resolve` / :meth:`reject`.
    Threads block in :meth:`wait`; asyncio tasks await the same
    :attr:`future` through :func:`asyncio.wrap_future`.  Both then read
    :meth:`outcome`.  A flight settles exactly once (``settled`` guards
    double-completion in defensive paths).

    ``waiters`` (every :meth:`SingleFlight.begin` that returned this
    flight) and ``expiry`` (the latest expiry they passed in) are kept
    under the table's lock; the gateway's batch window reads them once
    the flight has left the table.
    """

    __slots__ = ("future", "waiters", "expiry")

    def __init__(self) -> None:
        self.future: Future = Future()
        self.waiters = 0
        self.expiry = -math.inf  # no waiter yet

    @property
    def settled(self) -> bool:
        return self.future.done()

    def resolve(self, value) -> None:
        self.future.set_result(value)

    def reject(self, exc: BaseException) -> None:
        self.future.set_exception(exc)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the flight settles; False on timeout."""
        try:
            self.future.exception(timeout)
        except FutureTimeoutError:  # not the builtin before Python 3.11
            return False
        return True

    def outcome(self):
        """The settled value, re-raising the leader's exception.

        Only call once the flight has settled.  Each caller gets its
        *own* copy of the leader's exception (chained to the original
        via ``__cause__``): concurrent re-raises of one shared object
        would race on its ``__traceback__``.
        """
        exc = self.future.exception()
        if exc is not None:
            raise _follower_copy(exc)
        return self.future.result()


class SingleFlight:
    """A per-key in-flight table: leaders compute, followers share.

    ::

        flight, leader = sf.begin(key)
        if leader:
            try:
                flight.resolve(compute())
            except BaseException as exc:
                flight.reject(exc)
                raise
            finally:
                sf.end(key, flight)
        else:
            flight.wait()              # or, from a task: await
                                       # asyncio.shield(asyncio.wrap_future(
                                       #     flight.future))
        value = flight.outcome()       # re-raises the leader's failure

    The table only coalesces *concurrent* duplicates: ``end`` removes the
    key, so a later request for the same key starts a fresh flight (and,
    in the service, normally hits the persistent cache instead).
    Followers share the leader's failure too — one deterministic compile
    error answers every coalesced request instead of burning N compiles
    rediscovering it; the per-request retry loop above still retries with
    its own fresh flight.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict = {}
        #: lifetime counters (exposed by ``KernelService.stats()``).
        self.leaders = 0
        self.followers = 0
        self.usurped = 0

    def begin(self, key, expiry: float = math.inf) -> tuple[Flight, bool]:
        """(flight, is_leader) for ``key``.

        The first caller for a key gets ``is_leader=True`` and *must*
        settle the flight and call :meth:`end`; concurrent callers get
        the same flight with ``is_leader=False``.  Every call counts one
        of the flight's ``waiters`` and raises its ``expiry`` to at
        least ``expiry``.
        """
        with self._lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = Flight()
                self.leaders += 1
            else:
                self.followers += 1
            flight.waiters += 1
            flight.expiry = max(flight.expiry, expiry)
            return flight, leader

    def end(self, key, flight: Flight) -> bool:
        """Retire ``flight`` so later requests start fresh.

        Identity-checked: a stale ``end`` (defensive double-call) never
        removes a newer flight for the same key.  True when this call
        removed ``flight``, so exactly one of several racing closers
        sees True.
        """
        with self._lock:
            if self._inflight.get(key) is flight:
                del self._inflight[key]
                return True
            return False

    def usurp(self, key, flight: Flight) -> bool:
        """Depose a wedged leader: retire ``flight`` *without* settling it.

        The compile-budget watchdog calls this when a follower has waited
        out its patience on a leader that looks dead (crashed before
        settling, or wedged mid-compile).  Identity-checked like
        :meth:`end` — if the table already moved on to a newer flight for
        the key, this is a no-op.  After a successful usurp the caller
        loops back through :meth:`begin` and becomes the new leader (or a
        follower of whoever beat it there); the deposed leader's eventual
        ``end`` is harmless because it no longer matches.  Returns True
        when the stale flight was actually removed.
        """
        with self._lock:
            if self._inflight.get(key) is flight:
                del self._inflight[key]
                self.usurped += 1
                return True
            return False

    def flights(self) -> list:
        """A snapshot of the open ``(key, flight)`` pairs."""
        with self._lock:
            return list(self._inflight.items())

    def inflight(self) -> int:
        """Number of keys currently being computed (for surfaces/tests)."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> dict:
        with self._lock:
            return {
                "leaders": self.leaders,
                "followers": self.followers,
                "usurped": self.usurped,
                "inflight": len(self._inflight),
            }


class KeyedLocks:
    """A lazily-populated map of key -> :class:`threading.Lock`.

    Scoped locking for keyed work (IR construction, bytecode sizing):
    identical keys serialize, distinct keys run in parallel.  Locks are
    never discarded — the key space here is bounded by (kernel, size,
    flow, target) shapes, which is exactly the set of artifacts the
    service caches anyway.
    """

    def __init__(self) -> None:
        self._meta = threading.Lock()
        self._locks: dict = {}

    def get(self, key) -> threading.Lock:
        with self._meta:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    def __len__(self) -> int:
        with self._meta:
            return len(self._locks)
