"""Epoch-synchronized demand/claim allocation machine.

Models a contract-style execution environment: integer-only arithmetic
with floored division, block-number-driven epochs, and two
parity-alternating resource pools.  Users register demands against one
pool during an epoch and claim their shares from that same pool during
the next epoch, while the freshly replenished complementary pool collects
the next round of demands.  Dominant shares are stored as floored
reciprocals scaled by a precision factor, so no call ever needs a loop
over the user set and every division is an exact integer floor.  Every
intermediate must fit in 128 bits, and each is checked once: as an
operand of ``fixed_floor_div``, which checks both (``demand`` and
``claim`` make the same check inline and call it only to raise), or
where it is formed, a vector of non-negative values through its largest
component.

State, laid out as a contract stores it.  Per parity (index 0 or 1): the
pool claims drain (``_reserves``, an immutable pair of tuples, replaced
whole by a claim or a refill), the per-resource sum of demand times
reciprocal share (``_sds``), and the minimum stored reciprocal, i.e. the
largest dominant share among last epoch's demanders (``_max_recip``).
Per user, one list per field, indexed by the user's id (its registration
position): per parity the demand vector, its reciprocal (nonzero until a
claim clears it) and its epoch (0 for none yet), then the balance.  Demands
and balances are immutable tuples; every user shares one zeros tuple until
it first demands or claims.  No pool, balance or claimed share is copied out.

The cycle count is a single scalar recomputed at every epoch transition
for the pool claims are about to drain.

The records ``demand`` and ``claim`` return are built with
``tuple.__new__``, which skips the NamedTuple's Python-level constructor,
its arity check and its defaults; adding a field to ``DemandRecord`` or
``ClaimReceipt`` means updating each construction site, and
``test_records_built_on_hot_paths_are_well_formed`` checks that every
record has all its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, gt, sub
from typing import Iterable, NamedTuple

from .vectors import ResourceVector, _not_integer, require_integers

DEFAULT_PRECISION = 1_000_000

# All intermediates must stay representable in an unsigned 128-bit word;
# anything wider is treated as a corrupted computation, not wrapped.
INT_LIMIT = 2**128 - 1

# Builds a call's record without the NamedTuple's Python-level ``__new__``;
# it checks no arity, so each call site passes every field.
_new = tuple.__new__


class MachineError(Exception):
    """A call violated the machine's guards or preconditions."""


class MachineOverflowError(MachineError):
    """An intermediate value exceeded the 128-bit width contract."""


def _checked(value: int) -> int:
    if value > INT_LIMIT:
        raise MachineOverflowError(
            f"intermediate value {value} exceeds the 128-bit limit"
        )
    return value


def fixed_floor_div(a: int, b: int) -> int:
    """Floored division that checks both operands.

    ``update_state`` divides through it for the cycle count k'.
    ``demand`` and ``claim`` divide inline after the same operand check
    and call it only for an operand that check rejects, to raise.
    """
    if b == 0:
        raise MachineError("division by zero")
    if a < 0 or b < 0:
        raise MachineError("fixed_floor_div operates on non-negative integers")
    if a > INT_LIMIT or b > INT_LIMIT:
        _checked(a)
        _checked(b)
    return a // b


@dataclass(frozen=True)
class MachineConfig:
    """Deployment-time constants of the machine.

    Headroom: every intermediate must fit in 128 bits (``INT_LIMIT``),
    or the call raises ``MachineOverflowError``.  Let P_r be what pool r
    holds when it is used, leftovers carried across refills included.
    Every user demanding resource r stores a reciprocal of at most
    ``precision * P_r``, so the cycle-count numerator
    ``max_recip * P_r * precision`` is at most ``precision**2 * P_r**2``
    and the scaled demand sum ``sds_r`` at most ``n * precision * P_r``
    for n users demanding r.  So at the default precision a pool stays
    below about 2**44 units (``isqrt(INT_LIMIT) // precision``) and
    n * P_r < 2**108, whatever m.  Once its transition has succeeded, a
    claim's division cannot overflow and its shares need no clamp;
    ``claim`` argues both and compares its counts with exact ``pdrf``.
    An overflowing transition changes nothing, and only calls in its own
    epoch raise: a later epoch transitions with a cycle count of 0, since
    nobody demanded in the epoch before it.
    """

    resource_count: int
    epoch_span: int
    offset: int
    epoch_reserve: ResourceVector
    precision: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        require_integers(self, "resource_count", "epoch_span", "offset", "precision")
        # The machine scales this vector and trusts its components, so a
        # plain sequence is checked and stored as a ResourceVector here.
        if not isinstance(self.epoch_reserve, ResourceVector):
            try:
                reserve = ResourceVector(self.epoch_reserve)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"epoch_reserve: {exc}") from None
            object.__setattr__(self, "epoch_reserve", reserve)
        if self.resource_count < 1:
            raise ValueError("resource_count must be at least 1")
        if self.epoch_span < 1:
            raise ValueError("epoch_span must be at least 1")
        if len(self.epoch_reserve) != self.resource_count:
            raise ValueError("epoch_reserve length must equal resource_count")
        if self.precision < 1:
            raise ValueError("precision must be positive")


class ClaimReceipt(NamedTuple):
    user: int
    epoch: int
    task_count: int
    share: tuple[int, ...]  # the plain tuple the claim checked and credited
    clamped: bool


class DemandRecord(NamedTuple):
    """Echo of an accepted demand.

    ``min_updates`` counts how many times the running reciprocal-share
    minimum was replaced after its first assignment; it is the branch
    count the cost model charges for.
    """

    user: int
    epoch: int
    vector: tuple[int, ...]  # the vector the machine stored
    recip_share: int
    min_updates: int


class AllocationMachine:
    """Serialized single-writer state driven by block-stamped calls."""

    def __init__(self, config: MachineConfig) -> None:
        self._cfg = config
        m = config.resource_count
        # Parity 0 is the demand-target pool of epoch 1.
        self._reserves = (tuple(config.epoch_reserve), (0,) * m)
        self._sds: list[list[int]] = [[0] * m, [0] * m]
        self._max_recip: list[int] = [0, 0]
        self._k_prime = 0
        self._epoch = 1
        self._last_block = config.offset
        # First block of the next epoch; stored only when a transition
        # commits, so it always belongs to ``_epoch``.
        self._epoch_end = config.offset + config.epoch_span
        self._reset_epoch = 0
        self._demand: list[list[tuple[int, ...]]] = [[], []]
        self._recip: list[list[int]] = [[], []]
        self._demand_epoch: list[list[int]] = [[], []]
        self._balance: list[tuple[int, ...]] = []
        self._zeros = (0,) * m
        self._transitions = 0
        self._injected = config.epoch_reserve  # total_injected() before any transition

    @property
    def config(self) -> MachineConfig:
        return self._cfg

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def cycle_count(self) -> int:
        return self._k_prime

    @property
    def transitions(self) -> int:
        """Number of epoch transitions executed so far."""
        return self._transitions

    def reserve_pool(self, parity: int) -> ResourceVector:
        if _not_integer(parity) or parity not in (0, 1):
            raise ValueError(f"pool parity must be 0 or 1, got {parity!r}")
        return ResourceVector(self._reserves[parity])

    def balance_of(self, user: int) -> tuple[int, ...]:
        """The user's balance, the stored tuple itself."""
        return self.caller_snapshot(user)[3]

    def demand_pool_parity(self) -> int:
        """Pool index demands registered now would be stored against."""
        return (self._epoch + 1) % 2

    def total_injected(self) -> ResourceVector:
        """Deployment reserve plus every replenishment so far.

        Derived from the transition count when a transition executes,
        not summed alongside the refills, so ``accounting_gap`` still
        audits the refill arithmetic.
        """
        return self._injected

    def snapshot(self) -> dict:
        """Self-describing state record; stable across identical call sequences."""
        return {
            "epoch": self._epoch,
            "reserves": self._reserves,
            "cycle_count": self._k_prime,
            "balances": dict(enumerate(self._balance)),
        }

    def caller_snapshot(self, user: int) -> tuple:
        """What one call can change, read in O(m): ``(epoch, reserves,
        cycle_count, user's balance)`` as ``snapshot()`` holds them, with no
        validation of the values.  The user is checked as ``demand`` and
        ``claim`` check it."""
        if type(user) is not int or not 0 <= user < len(self._balance):
            self._check_user(user)
        return self._epoch, self._reserves, self._k_prime, self._balance[user]

    def _check_user(self, user: object) -> None:
        """The slow path for an id not a plain int in ``0 <= id < n``: check it
        as ``register_user`` does, and pass an int subclass in range."""
        if _not_integer(user):
            raise MachineError(f"user id must be an integer, got {user!r}") from None
        if not 0 <= user < len(self._balance):
            raise MachineError(f"user {user} is not registered") from None

    def register_user(self, user: int) -> None:
        """Register the next user: ids are registration positions, 0, 1,
        2, ..., so any other id raises, and changes nothing.  The machine
        caps no users per epoch: how many calls fit into an epoch depends
        on the chain's blocks, which the harness's schedule sets."""
        if _not_integer(user):
            raise MachineError(f"user id must be an integer, got {user!r}")
        n = len(self._balance)
        if user != n:
            if 0 <= user < n:
                raise MachineError(f"user {user} is already registered")
            raise MachineError(f"user {user} is out of order: the next user id is {n}")
        for column in (*self._demand, self._balance):
            column.append(self._zeros)
        for column in (*self._recip, *self._demand_epoch):
            column.append(0)

    def update_state(self, block: int) -> bool:
        """Advance the epoch for the given block number.

        On a transition: replenish the pool that will take the new
        epoch's demands, and recompute the cycle count for the pool the
        new epoch's claims will drain.  Returns True iff a transition
        executed; calling again at the same block is a no-op.  Blocks
        never go back: a block below the last one seen raises.

        Idle epochs do not replenish: a block that skips epochs (epoch 1
        straight to epoch 5) executes one transition and one refill, so
        there is exactly one refill per executed transition
        (``test_replenishment_once_per_transition_even_after_idle_epochs``).

        The refilled pool and the new cycle count are computed and checked
        before anything is stored, so a ``MachineOverflowError`` leaves
        the state as it was, the epoch and the last block seen included.

        A block that is not an int raises.  One in the current epoch at or
        past the last block seen needs no other check, so it returns at once;
        ``demand`` and ``claim`` repeat this test in line and call here for
        every other block.
        """
        if type(block) is not int and _not_integer(block):
            raise MachineError(f"block must be an integer, got {block!r}")
        if self._last_block <= block < self._epoch_end:
            self._last_block = block
            return False
        cfg = self._cfg
        if block < cfg.offset:
            raise MachineError(
                f"block {block} precedes the deployment offset {cfg.offset}"
            )
        if block < self._last_block:
            raise MachineError(
                f"block {block} precedes the last block seen, {self._last_block}"
            )
        # The block lies at or past ``_epoch_end``, which moves only when a
        # transition commits, so it always starts a later epoch.
        epoch = (block - cfg.offset) // cfg.epoch_span + 1
        s = epoch % 2
        refill = tuple(map(add, self._reserves[1 - s], cfg.epoch_reserve))
        _checked(max(refill))
        # Only the epoch just ended has claims; an undemanded resource is no bound.
        k_prime = 0
        if self._reset_epoch == epoch - 1:
            top, pool, p = self._max_recip[s], self._reserves[s], cfg.precision
            k_prime = min(
                fixed_floor_div(top * pool[r] * p, total)
                for r, total in enumerate(self._sds[s]) if total
            )
        self._epoch = epoch
        self._epoch_end = cfg.offset + epoch * cfg.epoch_span
        self._transitions += 1
        self._injected = cfg.epoch_reserve.scale(1 + self._transitions)
        keep = self._reserves[s]
        self._reserves = (keep, refill) if s == 0 else (refill, keep)
        self._k_prime = k_prime
        self._last_block = block
        return True

    def demand(self, user: int, vector: Iterable[int], block: int) -> DemandRecord:
        """Register a demand vector for the next epoch's claim round.

        The vector is checked first, so a rejected one changes nothing: a
        ``ResourceVector`` is kept as given; anything else is checked as
        one, raising its message as ``MachineError``, and kept as an exact
        tuple.  Each reciprocal candidate ``p * pool[r] // d`` is divided
        inline after the operand check ``fixed_floor_div`` makes; that
        function is called only for an operand the check rejects, so it
        raises the same error, for the same resource, as calling it every
        time.

        A block inside the current epoch, at or past the last block seen,
        is checked in line (``update_state``'s early return, without its
        call); every other block goes through ``update_state``, so the
        block rule and its messages are that method's.
        """
        if not isinstance(vector, ResourceVector):
            if vector is None:
                raise MachineError("demand carries no vector")
            try:
                vector = tuple(vector)
                ResourceVector(vector)
            except (TypeError, ValueError) as exc:  # not iterable, or invalid
                raise MachineError(str(exc)) from None
        if type(user) is not int or not 0 <= user < len(self._balance):
            self._check_user(user)
        # update_state's early return, repeated in line: a plain int block in
        # the current epoch, at or past the last block seen, is only stored.
        if type(block) is int and self._last_block <= block < self._epoch_end:
            self._last_block = block
        else:
            self.update_state(block)
        e = self._epoch
        s = (e + 1) % 2
        if self._demand_epoch[s][user] == e:
            raise MachineError(f"user {user} already demanded in epoch {e}")
        cfg = self._cfg
        if len(vector) != cfg.resource_count:
            raise MachineError(
                f"demand has {len(vector)} components, machine has "
                f"{cfg.resource_count} resources"
            )
        pool = self._reserves[s]
        p = cfg.precision
        recip: int | None = None
        updates = 0
        for r, d in enumerate(vector):
            if d == 0:
                continue
            if pool[r] == 0:
                raise MachineError(
                    f"resource {r} has no reserve in the demand pool"
                )
            scaled = p * pool[r]
            if 0 <= scaled <= INT_LIMIT and 0 < d <= INT_LIMIT:
                candidate = scaled // d
            else:
                candidate = fixed_floor_div(scaled, d)
            if recip is None:
                recip = candidate
            elif candidate < recip:
                recip = candidate
                updates += 1
        if recip is None:
            raise MachineError("demand must have a positive component")
        if recip == 0:
            raise MachineError(
                "demand exceeds the precision-scaled reserve; reciprocal "
                "share would be zero"
            )
        # Every new value is computed and checked before any is stored, so
        # a MachineOverflowError leaves the state as it was.
        max_recip = recip
        if self._reset_epoch == e:
            # Later demands of the epoch add to its sums; the minimum
            # reciprocal is the largest dominant share.
            sds = [t + recip * d for t, d in zip(self._sds[s], vector)]
            if self._max_recip[s] < recip:
                max_recip = self._max_recip[s]
        else:
            # The first demand of the epoch overwrites last round's sums.
            sds = [recip * d for d in vector]
        if max(sds) > INT_LIMIT:  # each sum bounds its non-negative terms
            _checked(max(sds))
        self._sds[s] = sds
        self._max_recip[s] = max_recip
        self._reset_epoch = e
        self._demand[s][user] = vector
        self._recip[s][user] = recip
        self._demand_epoch[s][user] = e
        return _new(DemandRecord, (user, e, vector, recip, updates))

    def claim(self, user: int, block: int) -> ClaimReceipt:
        """Pay out the user's previous-epoch demand and clear its reciprocal.

        One floored division: tasks = recip * k' // (max_recip * p).  The
        clamp is only a guard: k' <= max_recip * P_r * p / S_r for every
        demanded r, so the epoch's shares sum to at most P_r.  Headroom:
        S_r >= recip at the user's dominant resource r, so recip * k' is at
        most max_recip * P_r * p, which the transition checked, and
        max_recip * p is no larger: only the credited balance can overflow.
        At p <= 10 counts run both ways from exact ``pdrf``: at p = 10,
        demands (0, 1), (3, 2) against (2, 6) get (5, 0) for exact (4, 0),
        and (0, 1), (3, 1) against (1, 7) get (4, 0) for exact (6, 0).  A
        seeded search finds none above exact at p >= 100, nor does an
        exhaustive one at p = 100 and 10**6 over every multiset of n <= 3
        demands with components 0-3, m = 2, reserves 1-4 (tests/test_reference.py).
        The division is inline, as in ``demand``: ``fixed_floor_div`` is
        called only for an operand its check rejects, so the claim raises
        what that function raises.  The block is checked as in ``demand``:
        in line inside the current epoch, through ``update_state`` otherwise.
        """
        if type(user) is not int or not 0 <= user < len(self._balance):
            self._check_user(user)
        # update_state's early return, repeated in line as in ``demand``.
        if type(block) is int and self._last_block <= block < self._epoch_end:
            self._last_block = block
        else:
            self.update_state(block)
        e = self._epoch
        s = e % 2
        # Only the other parity's stamp is read, so a demand made earlier
        # in this epoch does not hide the claim.
        stamp = self._demand_epoch[s][user]
        if stamp == 0 or stamp != e - 1:
            raise MachineError(
                f"user {user} has no demand registered in epoch {e - 1}"
            )
        recip = self._recip[s][user]
        if recip == 0:
            raise MachineError(f"user {user} already claimed in epoch {e}")
        scale = self._max_recip[s] * self._cfg.precision
        scaled = recip * self._k_prime
        if 0 <= scaled <= INT_LIMIT and 0 < scale <= INT_LIMIT:
            task_count = scaled // scale
        else:
            task_count = fixed_floor_div(scaled, scale)
        pool = self._reserves[s]
        share = tuple([task_count * d for d in self._demand[s][user]])
        if max(share) > INT_LIMIT:
            _checked(max(share))
        clamped = any(map(gt, share, pool))
        if clamped:
            share = tuple(map(min, share, pool))
        # Checked before any unit moves, so an overflow changes nothing.
        credited = tuple(map(add, self._balance[user], share))
        if max(credited) > INT_LIMIT:
            _checked(max(credited))
        left, keep = tuple(map(sub, pool, share)), self._reserves[1 - s]
        self._reserves = (left, keep) if s == 0 else (keep, left)
        self._balance[user] = credited
        self._recip[s][user] = 0
        return _new(ClaimReceipt, (user, e, task_count, share, clamped))


def accounting_gap(machine: AllocationMachine) -> tuple[int, ...]:
    """Per-resource difference between injected units and accounted units.

    Zero everywhere iff the conservation identity holds exactly.  Sums
    the columns of both pools and every balance as the machine holds
    them, plain lists and tuples with no validation, so a negative
    quantity left by a fault shows in the gap instead of raising.
    """
    held = map(sum, zip(*machine._reserves, *machine._balance))
    return tuple(map(sub, machine.total_injected(), held))
