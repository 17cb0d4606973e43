"""TPC-A debit-credit workload over RVM / RLVM (Table 3).

"TPC-A is a sequence of simple debit-credit operations": each
transaction picks a branch, a teller of that branch, an account, and a
delta; it updates the three balances and appends a history record, then
commits.  The paper reports 418 transactions/second with RVM and 552
with RLVM on the 25 MHz prototype, with "only about 25% of the CPU time
in RVM actually spent inside the transaction" and RLVM cutting the
in-transaction time to under 1% of the runtime.

The harness runs real transactions through either library on the
simulated machine and converts measured cycles to transactions/second
at the machine's clock rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import TransactionError
from repro.core.process import Process
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM

#: Application compute per transaction outside the balance updates
#: (request parsing, account lookup arithmetic, response formatting).
APP_COMPUTE_CYCLES = 300

#: Bytes per history record: (branch, teller, account, delta) words.
HISTORY_RECORD_BYTES = 16


@dataclass
class TPCAConfig:
    """Scale parameters (tiny-scale TPC-A; ratios follow the spec)."""

    n_branches: int = 4
    tellers_per_branch: int = 10
    accounts_per_branch: int = 1000
    history_capacity: int = 4096  # records before wraparound
    seed: int = 1995

    @property
    def n_tellers(self) -> int:
        return self.n_branches * self.tellers_per_branch

    @property
    def n_accounts(self) -> int:
        return self.n_branches * self.accounts_per_branch


@dataclass
class TPCAResult:
    """Outcome of a measured TPC-A run."""

    transactions: int
    total_cycles: int
    in_txn_cycles: int
    commit_truncate_cycles: int
    tps: float

    @property
    def cycles_per_txn(self) -> float:
        return self.total_cycles / self.transactions

    @property
    def in_txn_fraction(self) -> float:
        return self.in_txn_cycles / self.total_cycles if self.total_cycles else 0.0


class TPCABenchmark:
    """TPC-A over a recoverable-memory backend (RVM or RLVM)."""

    def __init__(
        self,
        backend: RVM | RLVM,
        config: TPCAConfig | None = None,
    ) -> None:
        self.backend = backend
        self.config = config or TPCAConfig()
        self.proc: Process = backend.proc
        self._rng = random.Random(self.config.seed)
        self._is_rvm = isinstance(backend, RVM)
        self._history_count = 0
        self._layout()
        self.base_va = backend.map("tpca", self._total_bytes)

    # ------------------------------------------------------------------
    # Segment layout
    # ------------------------------------------------------------------
    def _layout(self) -> None:
        cfg = self.config
        self.accounts_off = 0
        self.tellers_off = cfg.n_accounts * 4
        self.branches_off = self.tellers_off + cfg.n_tellers * 4
        self.history_off = self.branches_off + cfg.n_branches * 4
        self._total_bytes = (
            self.history_off + cfg.history_capacity * HISTORY_RECORD_BYTES
        )

    def account_va(self, i: int) -> int:
        return self.base_va + self.accounts_off + 4 * i

    def teller_va(self, i: int) -> int:
        return self.base_va + self.tellers_off + 4 * i

    def branch_va(self, i: int) -> int:
        return self.base_va + self.branches_off + 4 * i

    def history_va(self, i: int) -> int:
        return self.base_va + self.history_off + HISTORY_RECORD_BYTES * (
            i % self.config.history_capacity
        )

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def _pick(self) -> tuple[int, int, int, int]:
        cfg = self.config
        branch = self._rng.randrange(cfg.n_branches)
        teller = branch * cfg.tellers_per_branch + self._rng.randrange(
            cfg.tellers_per_branch
        )
        account = branch * cfg.accounts_per_branch + self._rng.randrange(
            cfg.accounts_per_branch
        )
        # Deltas stay positive so unsigned balances never wrap.
        delta = self._rng.randrange(1, 100)
        return branch, teller, account, delta

    def _update(self, txn, vaddr: int, delta: int) -> None:
        """Read-modify-write of one balance."""
        if self._is_rvm:
            txn.set_range(vaddr, 4)
        value = txn.read(vaddr)
        txn.write(vaddr, (value + delta) & 0xFFFFFFFF)

    def run_transaction(self, flush: bool = True) -> int:
        """Execute one debit-credit transaction (begin → commit).

        Returns the in-transaction cycles (everything before the commit
        I/O), the quantity the paper contrasts with commit/truncate.
        ``flush=False`` is the group-commit path: the commit buffers and
        a later :meth:`RVM.flush` amortises the log I/O over the batch.
        """
        branch, teller, account, delta = self._pick()
        t0 = self.proc.now
        txn = self.backend.begin()
        self.proc.compute(APP_COMPUTE_CYCLES)
        self._update(txn, self.account_va(account), delta)
        self._update(txn, self.teller_va(teller), delta)
        self._update(txn, self.branch_va(branch), delta)
        hva = self.history_va(self._history_count)
        if self._is_rvm:
            txn.set_range(hva, HISTORY_RECORD_BYTES)
        for i, word in enumerate((branch, teller, account, delta)):
            txn.write(hva + 4 * i, word)
        self._history_count += 1
        in_txn = self.proc.now - t0
        txn.commit(flush=flush)
        return in_txn

    def run(
        self,
        transactions: int,
        truncate_every: int = 1,
        group_commit: int = 0,
    ) -> TPCAResult:
        """Run ``transactions`` debit-credits and measure throughput.

        ``truncate_every`` controls how often log truncation runs; the
        paper's configuration truncates as part of every transaction's
        cost envelope.

        ``group_commit`` > 0 batches durability: commits buffer
        (no-flush), and every ``group_commit`` transactions one library
        flush pushes the whole batch to the log device in a single
        group I/O — the classic group-commit amortisation.  The batch
        is also flushed before every truncation and at the end of the
        run, so the final durable state matches the synchronous mode's
        byte for byte.
        """
        if transactions < 1:
            raise TransactionError("need at least one transaction")
        proc = self.proc
        # Warm the working set so page faults are not measured (the
        # paper's methodology primes the caches, section 4.5.1).
        self._warm()
        start = proc.now
        in_txn = 0
        for i in range(1, transactions + 1):
            in_txn += self.run_transaction(flush=group_commit == 0)
            if group_commit and i % group_commit == 0:
                self.backend.flush()
            if i % truncate_every == 0:
                if group_commit:
                    self.backend.flush()
                self.backend.truncate()
        if group_commit:
            self.backend.flush()
        total = proc.now - start
        clock_hz = proc.machine.config.clock_hz
        tps = transactions / (total / clock_hz)
        return TPCAResult(
            transactions=transactions,
            total_cycles=total,
            in_txn_cycles=in_txn,
            commit_truncate_cycles=total - in_txn,
            tps=tps,
        )

    def _warm(self) -> None:
        """Touch every page of the recoverable segment once."""
        base = self.backend.segments["tpca"].data_va
        for off in range(0, self._total_bytes, 4096):
            self.proc.read(base + off)
        self.proc.machine.quiesce()

    # ------------------------------------------------------------------
    # Consistency checking
    # ------------------------------------------------------------------
    def balances(self) -> tuple[int, int, int]:
        """(sum of accounts, sum of tellers, sum of branches) — equal
        when the database is consistent."""
        cfg = self.config
        seg = self.backend.segments["tpca"]
        segment = seg.segment
        data_off = seg.data_va - seg.base_va
        acc = sum(
            segment.read(data_off + self.accounts_off + 4 * i, 4)
            for i in range(cfg.n_accounts)
        )
        tel = sum(
            segment.read(data_off + self.tellers_off + 4 * i, 4)
            for i in range(cfg.n_tellers)
        )
        brn = sum(
            segment.read(data_off + self.branches_off + 4 * i, 4)
            for i in range(cfg.n_branches)
        )
        return acc, tel, brn

    def is_consistent(self) -> bool:
        acc, tel, brn = self.balances()
        return acc == tel == brn
