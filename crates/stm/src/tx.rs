//! Transaction machinery: ownership table, transactions, retry helper.

use eirene_sim::{Addr, GlobalMemory, Phase, WarpCtx};
use std::sync::atomic::{AtomicU64, Ordering};

/// Marker error: the transaction hit a conflict and must be rolled back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort;

/// Result of a transactional operation.
pub type TxResult<T> = Result<T, Abort>;

/// Distinguishes `Stm` instances, so a [`TxScratch`] never spends ids it
/// leased from one instance on another.
static NEXT_STM_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// Transaction ids a [`TxScratch`] takes from [`Stm::next_tx_id`] at once.
const TX_ID_BLOCK: u64 = 64;

/// STM instance: an ownership table in device memory.
///
/// `stripes` must be a power of two. Each record protects the arena words
/// that map onto it ([`record_addr`](Self::record_addr)). Records are even
/// version numbers when free and odd `(tx_id << 1) | 1` markers when owned.
pub struct Stm {
    table_base: Addr,
    mask: u64,
    /// Start of the next unleased block of transaction ids.
    next_tx_id: AtomicU64,
    instance: u64,
}

/// Reusable working memory of one transaction at a time: the logs a
/// [`Tx`] fills, plus a private block of transaction ids leased from the
/// `Stm` it last began on. Hold one per worker slot
/// (`Device::launch_with`) and pass it to every [`Stm::begin`] /
/// [`Stm::run`]: once the logs have grown to the largest transaction seen,
/// beginning, running and ending a transaction touches neither the
/// allocator nor a cache line shared with other warps. Per slot rather than
/// per warp because growing the logs is the cost: an iteration warp runs
/// ≈ 5 transactions and would regrow them 4 → 8 → 16 → 32 every time, a
/// slot runs ≈ 500 per launch and grows them once.
#[derive(Debug, Default)]
pub struct TxScratch {
    /// (record address, observed version).
    reads: Vec<(Addr, u64)>,
    /// (word address, old value) — undo log, rolled back in reverse.
    undo: Vec<(Addr, u64)>,
    /// (record address, pre-lock version) for stripes this tx owns.
    owned: Vec<(Addr, u64)>,
    /// (block address, words, align) retirements deferred to commit: a
    /// retire inside an aborting transaction would be a use-after-free
    /// (the rolled-back tree still links the block), so retirement is a
    /// commit-time effect and a rollback simply drops the list.
    retires: Vec<(Addr, usize, usize)>,
    /// The mirror image: blocks this transaction allocated but has not
    /// yet published (e.g. a split's fresh sibling). On commit they are
    /// reachable and the list is dropped; on rollback the undo log
    /// unlinks them, so they are retired instead of leaking.
    abort_retires: Vec<(Addr, usize, usize)>,
    /// Leased ids not yet spent, valid on `Stm` instance `lease_of` only.
    lease: std::ops::Range<u64>,
    lease_of: u64,
}

impl Stm {
    /// Allocates the ownership table in the arena.
    pub fn new(mem: &GlobalMemory, stripes: usize) -> Self {
        assert!(
            stripes.is_power_of_two(),
            "stripe count must be a power of two"
        );
        let table_base = mem.alloc_aligned(stripes, 16);
        Stm {
            table_base,
            mask: stripes as u64 - 1,
            next_tx_id: AtomicU64::new(1),
            instance: NEXT_STM_INSTANCE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Ownership-record address for an arena word: the classic
    /// shifted-address map. Words `2k` and `2k + 1` share a record, and
    /// consecutive pairs own consecutive records, so the records of a node
    /// sit beside each other the way its words do — a 16-aligned 48-word
    /// node stride owns 24 adjacent records, three 64-byte lines of the
    /// table — and a transaction over one node touches a few table lines,
    /// not one per pair. Distinct pairs inside any window of `2 · stripes`
    /// words never share a record; the aliases are the words exactly a
    /// multiple of `2 · stripes` apart.
    #[inline]
    pub fn record_addr(&self, addr: Addr) -> Addr {
        self.table_base + ((addr >> 1) & self.mask)
    }

    /// Starts a transaction whose logs live in `scratch`. Whatever an
    /// earlier transaction left there is discarded.
    pub fn begin<'t>(&'t self, scratch: &'t mut TxScratch) -> Tx<'t> {
        if scratch.lease.is_empty() || scratch.lease_of != self.instance {
            // Blocks are disjoint per `Stm`, so markers stay unique among
            // its transactions however many scratches draw from it.
            let start = self.next_tx_id.fetch_add(TX_ID_BLOCK, Ordering::Relaxed);
            scratch.lease = start..start + TX_ID_BLOCK;
            scratch.lease_of = self.instance;
        }
        let id = scratch.lease.start;
        scratch.lease.start += 1;
        scratch.reads.clear();
        scratch.undo.clear();
        scratch.owned.clear();
        scratch.retires.clear();
        scratch.abort_retires.clear();
        Tx {
            stm: self,
            marker: (id << 1) | 1,
            log: scratch,
        }
    }

    /// Runs `body` in a transaction, retrying on abort up to `max_retries`
    /// times with linear back-off. Increments `ctx.stats.stm_aborts` per
    /// abort. Returns `Err(Abort)` only if every attempt aborted.
    pub fn run<T>(
        &self,
        ctx: &mut WarpCtx<'_>,
        scratch: &mut TxScratch,
        max_retries: usize,
        mut body: impl FnMut(&mut Tx<'_>, &mut WarpCtx<'_>) -> TxResult<T>,
    ) -> TxResult<T> {
        for attempt in 0..=max_retries {
            let mut tx = self.begin(scratch);
            match body(&mut tx, ctx) {
                Ok(value) => {
                    if let Ok(()) = tx.commit(ctx) {
                        return Ok(value);
                    }
                }
                Err(Abort) => tx.rollback(ctx),
            }
            let prev = ctx.set_phase(Phase::StmCommit);
            ctx.stm_abort();
            // Capped linear back-off, charged as stall cycles.
            ctx.charge_cycles(50 * ((attempt as u64) + 1).min(16));
            ctx.set_phase(prev);
        }
        Err(Abort)
    }
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("stripes", &(self.mask + 1))
            .finish()
    }
}

/// An in-flight transaction.
pub struct Tx<'s> {
    stm: &'s Stm,
    marker: u64,
    log: &'s mut TxScratch,
}

impl<'s> Tx<'s> {
    #[inline]
    fn owns(&self, rec: Addr) -> bool {
        self.log.owned.iter().any(|&(r, _)| r == rec)
    }

    /// Transactional read with eager conflict detection.
    ///
    /// TL2-style post-validation: the ownership record is read *before and
    /// after* the data word. Without the second check, a concurrent writer
    /// could install a value, hand it to this reader, and then abort —
    /// restoring the record's version so that commit-time validation would
    /// miss the dirty read entirely.
    pub fn read(&mut self, ctx: &mut WarpCtx<'_>, addr: Addr) -> TxResult<u64> {
        let rec = self.stm.record_addr(addr);
        // Ownership-record traffic is STM overhead; the data-word access
        // below stays attributed to the caller's phase so tree-level phase
        // breakdowns remain visible under STM protection.
        let prev = ctx.set_phase(Phase::StmAccess);
        // Ownership check, read-set append, and lock/version decode are
        // all control flow in the real implementation.
        ctx.control(4);
        let r1 = ctx.read(rec);
        ctx.set_phase(prev);
        if r1 & 1 == 1 {
            if r1 != self.marker {
                return Err(Abort); // owned by someone else
            }
            // Owned by us: read through.
            return Ok(ctx.read(addr));
        }
        let value = ctx.read(addr);
        let prev = ctx.set_phase(Phase::StmAccess);
        let r2 = ctx.read(rec);
        ctx.control(1);
        ctx.set_phase(prev);
        if r2 != r1 {
            return Err(Abort); // writer interfered mid-read
        }
        self.log.reads.push((rec, r1));
        Ok(value)
    }

    /// Transactional write with encounter-time locking and undo logging.
    pub fn write(&mut self, ctx: &mut WarpCtx<'_>, addr: Addr, value: u64) -> TxResult<()> {
        let rec = self.stm.record_addr(addr);
        // Stripe acquisition and undo logging are STM overhead; only the
        // final data-word store stays in the caller's phase.
        let prev = ctx.set_phase(Phase::StmAccess);
        // Encounter-time locking: ownership lookup, CAS result dispatch,
        // and undo-log append are control flow.
        ctx.control(6);
        if !self.owns(rec) {
            let cur = ctx.read(rec);
            if cur & 1 == 1 {
                ctx.set_phase(prev);
                return Err(Abort); // locked by another tx
            }
            if ctx.atomic_cas(rec, cur, self.marker).is_err() {
                ctx.set_phase(prev);
                return Err(Abort);
            }
            self.log.owned.push((rec, cur));
        }
        let old = ctx.read(addr);
        self.log.undo.push((addr, old));
        ctx.set_phase(prev);
        ctx.write(addr, value);
        Ok(())
    }

    /// Validates the read set and publishes: owned versions advance by 2.
    pub fn commit(self, ctx: &mut WarpCtx<'_>) -> TxResult<()> {
        let prev = ctx.set_phase(Phase::StmCommit);
        // Validate: every read record still shows the version we saw,
        // unless we later acquired it ourselves.
        for &(rec, ver) in &self.log.reads {
            ctx.control(2);
            let cur = ctx.read(rec);
            let ok = cur == ver || (cur == self.marker && self.pre_lock_version(rec) == Some(ver));
            if !ok {
                self.rollback(ctx);
                ctx.set_phase(prev);
                return Err(Abort);
            }
        }
        // Publish: bump versions and release locks.
        for &(rec, ver) in &self.log.owned {
            ctx.write(rec, ver.wrapping_add(2));
        }
        // The tree no longer references deferred-retired blocks (the
        // unlinking writes just published), so quarantine them now.
        for &(addr, words, align) in &self.log.retires {
            ctx.raw_mem().retire(addr, words, align);
        }
        ctx.set_phase(prev);
        Ok(())
    }

    /// Defers a block retirement to a successful commit. If the
    /// transaction aborts, the block stays live (the rollback restores
    /// the links to it) and the request is dropped.
    pub fn defer_retire(&mut self, addr: Addr, words: usize, align: usize) {
        self.log.retires.push((addr, words, align));
    }

    /// Registers a freshly allocated, not-yet-published block for
    /// retirement if this transaction rolls back. A committed transaction
    /// drops the registration (the block became reachable when the links
    /// to it published).
    pub fn retire_on_abort(&mut self, addr: Addr, words: usize, align: usize) {
        self.log.abort_retires.push((addr, words, align));
    }

    fn pre_lock_version(&self, rec: Addr) -> Option<u64> {
        self.log
            .owned
            .iter()
            .find(|&&(r, _)| r == rec)
            .map(|&(_, v)| v)
    }

    /// Rolls back all writes (in reverse) and releases owned stripes with
    /// their versions unchanged.
    pub fn rollback(self, ctx: &mut WarpCtx<'_>) {
        let prev = ctx.set_phase(Phase::StmCommit);
        for &(addr, old) in self.log.undo.iter().rev() {
            ctx.write(addr, old);
        }
        for &(rec, ver) in &self.log.owned {
            ctx.write(rec, ver);
        }
        // Blocks this tx allocated were never published (the undo log
        // just unlinked any references), so quarantine them instead of
        // leaking them into the bump arena.
        for &(addr, words, align) in &self.log.abort_retires {
            ctx.raw_mem().retire(addr, words, align);
        }
        ctx.set_phase(prev);
    }

    /// Number of words read so far (diagnostics).
    pub fn read_set_len(&self) -> usize {
        self.log.reads.len()
    }

    /// Number of words written so far (diagnostics).
    pub fn write_set_len(&self) -> usize {
        self.log.undo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_sim::{Device, DeviceConfig, WarpStats};

    fn device() -> Device {
        Device::new(1 << 16, DeviceConfig::test_small())
    }

    #[test]
    fn records_sit_beside_the_words_they_protect() {
        let dev = device();
        const STRIPES: u64 = 256;
        let stm = Stm::new(dev.mem(), STRIPES as usize);
        let rec = |addr: Addr| stm.record_addr(addr);
        // Starts chosen to cover a window that begins mid-table, at an odd
        // word, and one that wraps the table.
        for start in [0u64, 1, 48, 2 * STRIPES - 16, 12_345] {
            let first_pair = start.div_ceil(2);
            let mut seen: Vec<Addr> = (first_pair..first_pair + STRIPES)
                .map(|pair| {
                    assert_eq!(rec(2 * pair), rec(2 * pair + 1), "pair {pair} is split");
                    rec(2 * pair)
                })
                .collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(
                seen.len() as u64,
                STRIPES,
                "two pairs of the 2 · stripes window at {start} share a record"
            );
        }
        // A 16-aligned node stride of 48 words: 24 consecutive records, i.e.
        // exactly three 64-byte lines of the (16-word-aligned) table.
        for node in [64u64, 64 + 48, 16 * 1000] {
            let recs: Vec<Addr> = (0..24).map(|pair| rec(node + 2 * pair)).collect();
            assert!(
                recs.windows(2).all(|w| w[1] == w[0] + 1),
                "node {node}: {recs:?}"
            );
            assert_eq!(recs[0] % 8, 0, "node {node}: records start mid-line");
            assert_eq!((recs[23] - recs[0] + 1) * 8, 3 * 64, "bytes spanned");
        }
        // The documented aliases: words a multiple of 2 · stripes apart.
        for addr in [0u64, 7, 100] {
            assert_eq!(rec(addr), rec(addr + 2 * STRIPES));
            assert_eq!(rec(addr), rec(addr + 6 * STRIPES));
            assert_ne!(rec(addr), rec(addr + STRIPES));
        }
    }

    #[test]
    fn committed_write_is_visible() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        stm.run(&mut ctx, &mut scratch, 4, |tx, ctx| {
            tx.write(ctx, a, 42)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(dev.mem().read(a), 42);
    }

    #[test]
    fn rollback_restores_old_values() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(2);
        dev.mem().write(a, 7);
        dev.mem().write(a + 1, 8);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        let mut tx = stm.begin(&mut scratch);
        tx.write(&mut ctx, a, 100).unwrap();
        tx.write(&mut ctx, a + 1, 200).unwrap();
        tx.rollback(&mut ctx);
        assert_eq!(dev.mem().read(a), 7);
        assert_eq!(dev.mem().read(a + 1), 8);
    }

    #[test]
    fn read_own_write() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        let mut tx = stm.begin(&mut scratch);
        tx.write(&mut ctx, a, 5).unwrap();
        assert_eq!(tx.read(&mut ctx, a), Ok(5));
        tx.commit(&mut ctx).unwrap();
    }

    #[test]
    fn writer_conflicts_abort_eagerly() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut stats1 = WarpStats::default();
        let mut ctx1 = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats1);
        let mut stats2 = WarpStats::default();
        let mut ctx2 = WarpCtx::new(dev.mem(), dev.config(), 1, &mut stats2);
        let (mut scratch1, mut scratch2) = (TxScratch::default(), TxScratch::default());
        let mut t1 = stm.begin(&mut scratch1);
        t1.write(&mut ctx1, a, 1).unwrap();
        let mut t2 = stm.begin(&mut scratch2);
        assert_eq!(t2.write(&mut ctx2, a, 2), Err(Abort));
        assert_eq!(t2.read(&mut ctx2, a), Err(Abort));
        t2.rollback(&mut ctx2);
        t1.commit(&mut ctx1).unwrap();
        assert_eq!(dev.mem().read(a), 1);
    }

    #[test]
    fn commit_validates_read_set() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut stats1 = WarpStats::default();
        let mut ctx1 = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats1);
        let mut stats2 = WarpStats::default();
        let mut ctx2 = WarpCtx::new(dev.mem(), dev.config(), 1, &mut stats2);
        let (mut scratch1, mut scratch2) = (TxScratch::default(), TxScratch::default());
        // T1 reads a, then T2 commits a write to a, then T1 must fail.
        let mut t1 = stm.begin(&mut scratch1);
        assert_eq!(t1.read(&mut ctx1, a), Ok(0));
        let mut t2 = stm.begin(&mut scratch2);
        t2.write(&mut ctx2, a, 9).unwrap();
        t2.commit(&mut ctx2).unwrap();
        assert_eq!(t1.commit(&mut ctx1), Err(Abort));
    }

    #[test]
    fn read_then_own_write_still_commits() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        let mut tx = stm.begin(&mut scratch);
        assert_eq!(tx.read(&mut ctx, a), Ok(0));
        tx.write(&mut ctx, a, 3).unwrap();
        assert_eq!(tx.commit(&mut ctx), Ok(()));
        assert_eq!(dev.mem().read(a), 3);
    }

    #[test]
    fn run_retries_until_success() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        let mut attempts = 0;
        let r = stm.run(&mut ctx, &mut scratch, 5, |tx, ctx| {
            attempts += 1;
            if attempts < 3 {
                return Err(Abort); // simulate conflicts
            }
            tx.write(ctx, a, 77)
        });
        assert_eq!(r, Ok(()));
        assert_eq!(attempts, 3);
        assert_eq!(ctx.stats.stm_aborts, 2);
        assert_eq!(dev.mem().read(a), 77);
    }

    /// Runs `body(wid)` for every warp id below `warps` on four OS threads
    /// (warp ids dealt round-robin), so transactions genuinely overlap.
    fn on_threads(warps: u64, body: impl Fn(u64) + Sync) {
        const THREADS: u64 = 4;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let body = &body;
                s.spawn(move || (t..warps).step_by(THREADS as usize).for_each(body));
            }
        });
    }

    #[test]
    fn leased_markers_are_distinct_across_threads_and_blocks() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        const THREADS: usize = 8;
        const BEGINS: usize = 10_000; // many id blocks per scratch
        let mut markers: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut scratch = TxScratch::default();
                        (0..BEGINS)
                            .map(|_| stm.begin(&mut scratch).marker)
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("no begin panics"))
                .collect()
        });
        assert!(markers.iter().all(|m| m & 1 == 1), "markers are odd");
        markers.sort_unstable();
        markers.dedup();
        assert_eq!(markers.len(), THREADS * BEGINS);
    }

    #[test]
    fn a_lease_is_never_spent_on_another_stm() {
        let dev = device();
        let (stm_a, stm_b) = (Stm::new(dev.mem(), 256), Stm::new(dev.mem(), 256));
        let (mut wanderer, mut resident) = (TxScratch::default(), TxScratch::default());
        let on_a = stm_a.begin(&mut wanderer).marker;
        // `resident` takes the block of `stm_b` that `wanderer`'s lease on
        // `stm_a` numerically overlaps.
        let mut on_b = vec![stm_b.begin(&mut resident).marker];
        assert_eq!(on_a, on_b[0], "both instances number from the same start");
        on_b.push(stm_b.begin(&mut wanderer).marker);
        on_b.push(stm_b.begin(&mut resident).marker);
        on_b.push(stm_b.begin(&mut wanderer).marker);
        on_b.sort_unstable();
        on_b.dedup();
        assert_eq!(on_b.len(), 4, "a marker was reused on one Stm");
    }

    #[test]
    fn concurrent_increments_are_atomic() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 1024);
        let cells: Vec<Addr> = (0..16).map(|_| dev.mem().alloc(1)).collect();
        let done = std::sync::atomic::AtomicU64::new(0);
        on_threads(64, |wid| {
            let mut stats = WarpStats::default();
            let mut ctx = WarpCtx::new(dev.mem(), dev.config(), wid as usize, &mut stats);
            let mut scratch = TxScratch::default();
            for i in 0..100 {
                let cell = cells[(wid as usize + i) % cells.len()];
                let r = stm.run(&mut ctx, &mut scratch, usize::MAX >> 1, |tx, ctx| {
                    let v = tx.read(ctx, cell)?;
                    tx.write(ctx, cell, v + 1)
                });
                if r.is_ok() {
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        });
        let total = done.into_inner();
        assert_eq!(total, 6400);
        let sum: u64 = cells.iter().map(|&c| dev.mem().read(c)).sum();
        assert_eq!(sum, 6400, "lost or duplicated increments");
    }

    #[test]
    fn concurrent_transfers_conserve_totals() {
        // Classic STM atomicity property: random transfers between
        // accounts must conserve the total; a dirty read, lost update, or
        // partial rollback would break conservation.
        let dev = device();
        let stm = Stm::new(dev.mem(), 1024);
        let accounts: Vec<Addr> = (0..32).map(|_| dev.mem().alloc(1)).collect();
        for &a in &accounts {
            dev.mem().write(a, 1000);
        }
        on_threads(48, |wid| {
            let mut stats = WarpStats::default();
            let mut ctx = WarpCtx::new(dev.mem(), dev.config(), wid as usize, &mut stats);
            let mut scratch = TxScratch::default();
            for i in 0..80u64 {
                let from = accounts[((wid * 7 + i) % 32) as usize];
                let to = accounts[((wid * 13 + i * 3 + 1) % 32) as usize];
                if from == to {
                    continue;
                }
                stm.run(&mut ctx, &mut scratch, usize::MAX >> 1, |tx, ctx| {
                    let f = tx.read(ctx, from)?;
                    let t = tx.read(ctx, to)?;
                    let amount = 1 + (i % 7);
                    if f >= amount {
                        tx.write(ctx, from, f - amount)?;
                        tx.write(ctx, to, t + amount)?;
                    }
                    Ok(())
                })
                .unwrap();
            }
        });
        let total: u64 = accounts.iter().map(|&a| dev.mem().read(a)).sum();
        assert_eq!(total, 32 * 1000, "transfers must conserve the total");
    }

    #[test]
    fn doomed_reader_never_observes_torn_transfer() {
        // Readers must never see a state where money is in flight: with
        // the TL2-style post-validated read, any snapshot of (a, b) taken
        // inside a committed transaction shows a conserved sum.
        let dev = device();
        let stm = Stm::new(dev.mem(), 512);
        let a = dev.mem().alloc(1);
        let b = dev.mem().alloc(1);
        dev.mem().write(a, 500);
        dev.mem().write(b, 500);
        let bad = std::sync::atomic::AtomicU64::new(0);
        on_threads(16, |wid| {
            let mut stats = WarpStats::default();
            let mut ctx = WarpCtx::new(dev.mem(), dev.config(), wid as usize, &mut stats);
            let mut scratch = TxScratch::default();
            for i in 0..200u64 {
                if wid % 2 == 0 {
                    stm.run(&mut ctx, &mut scratch, usize::MAX >> 1, |tx, ctx| {
                        let va = tx.read(ctx, a)?;
                        let vb = tx.read(ctx, b)?;
                        if va > 0 {
                            tx.write(ctx, a, va - 1)?;
                            tx.write(ctx, b, vb + 1)?;
                        }
                        Ok(())
                    })
                    .unwrap();
                } else {
                    let sum = stm
                        .run(&mut ctx, &mut scratch, usize::MAX >> 1, |tx, ctx| {
                            Ok(tx.read(ctx, a)? + tx.read(ctx, b)?)
                        })
                        .unwrap();
                    if sum != 1000 {
                        bad.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                let _ = i;
            }
        });
        assert_eq!(bad.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn deferred_retires_fire_on_commit_and_drop_on_rollback() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let block = dev.mem().alloc_reuse(38, 16);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        // Rollback: the retirement request is dropped, nothing quarantined.
        let mut tx = stm.begin(&mut scratch);
        tx.write(&mut ctx, a, 1).unwrap();
        tx.defer_retire(block, 38, 16);
        tx.rollback(&mut ctx);
        assert_eq!(dev.mem().slab_stats().retired, 0);
        // Commit: the block is quarantined and recycles after an advance.
        let mut tx = stm.begin(&mut scratch);
        tx.write(&mut ctx, a, 2).unwrap();
        tx.defer_retire(block, 38, 16);
        tx.commit(&mut ctx).unwrap();
        assert_eq!(dev.mem().slab_stats().retired, 1);
        dev.mem().advance_epoch();
        assert_eq!(dev.mem().alloc_reuse(38, 16), block);
    }

    #[test]
    fn abort_retires_fire_on_rollback_and_drop_on_commit() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        // Commit: the fresh block became reachable, nothing quarantined.
        let fresh = dev.mem().alloc_reuse(38, 16);
        let mut tx = stm.begin(&mut scratch);
        tx.write(&mut ctx, a, 1).unwrap();
        tx.retire_on_abort(fresh, 38, 16);
        tx.commit(&mut ctx).unwrap();
        assert_eq!(dev.mem().slab_stats().retired, 0);
        // Rollback: the orphan is quarantined and recycles after advance.
        let orphan = dev.mem().alloc_reuse(38, 16);
        let mut tx = stm.begin(&mut scratch);
        tx.write(&mut ctx, a, 2).unwrap();
        tx.retire_on_abort(orphan, 38, 16);
        tx.rollback(&mut ctx);
        assert_eq!(dev.mem().slab_stats().retired, 1);
        dev.mem().advance_epoch();
        assert_eq!(dev.mem().alloc_reuse(38, 16), orphan);
    }

    #[test]
    fn stm_reads_cost_more_than_raw_reads() {
        // The Fig. 1 mechanism: transactional traffic includes ownership
        // records, so per-access memory instructions go up.
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut raw_stats = WarpStats::default();
        let mut raw_ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut raw_stats);
        raw_ctx.read(a);
        let raw = raw_ctx.stats.mem_insts;
        let mut tx_stats = WarpStats::default();
        let mut tx_ctx = WarpCtx::new(dev.mem(), dev.config(), 1, &mut tx_stats);
        let mut scratch = TxScratch::default();
        let mut tx = stm.begin(&mut scratch);
        tx.read(&mut tx_ctx, a).unwrap();
        tx.commit(&mut tx_ctx).unwrap();
        assert!(tx_ctx.stats.mem_insts >= 2 * raw);
    }
}
