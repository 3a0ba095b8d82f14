//! Closed-loop epoch sizing: an AIMD controller per shard.
//!
//! The paper tunes a *fixed* batch size per workload; the serving layer
//! instead closes the loop that the observability plane opened. Each
//! shard thread finishes an epoch with exactly the signals a controller
//! needs — realized batch, ingress queue depth, reorder backlog, and
//! the epoch's p99 latency in device cycles — and feeds them to its
//! [`BatchController`], whose target the same thread reads at the top of
//! its next turn: one owner, no sharing.
//!
//! The policy is classic AIMD, bounded to `[min_batch, max_batch]`:
//!
//! * **Multiplicative decrease** when the epoch's p99 exceeded the
//!   latency budget (QoS pressure beats throughput), or — when no
//!   budget is set — when the realized batch badly underfilled the
//!   target with no backlog behind it (the target is stale, shrink it
//!   toward what the load can fill).
//! * **Additive increase** when the shard finished the epoch with at
//!   least a target's worth of backlog still waiting (the shard is
//!   falling behind; larger epochs amortize per-epoch overhead).
//! * **Slow start** when the backlog dwarfs the target (≥ 4x): additive
//!   steps would spend the whole run ramping, so the controller opens
//!   up faster — straight to the backlog (capped at `max_batch`) when
//!   no latency budget is set, or by doubling when one is, so the
//!   budget brake still gets a chance to catch an overshoot.
//!
//! `EpochSizing::Fixed`, the paper's constant limit, is the default: the
//! controller degenerates to a constant and `on_epoch` is a no-op.

/// Parameters of the adaptive (AIMD) epoch-sizing policy.
#[derive(Clone, Debug, PartialEq)]
pub struct AimdSpec {
    /// Lower bound on the batch target (never shrink below this).
    pub min_batch: usize,
    /// Upper bound on the batch target (never grow beyond this).
    pub max_batch: usize,
    /// Starting target, clamped into `[min_batch, max_batch]`.
    pub initial: usize,
    /// Additive step applied when the shard is backlogged.
    pub increase: usize,
    /// Multiplicative factor in (0, 1) applied under latency pressure.
    pub decrease: f64,
    /// Epoch p99 budget in device cycles; `None` disables the latency
    /// brake and the controller tracks backlog only.
    pub p99_budget_cycles: Option<u64>,
}

impl AimdSpec {
    /// A spec bounded to `[min, max]` with defaults scaled to fit.
    pub fn bounded(min_batch: usize, max_batch: usize) -> Self {
        let min_batch = min_batch.max(1);
        let max_batch = max_batch.max(min_batch);
        AimdSpec {
            min_batch,
            max_batch,
            initial: min_batch,
            increase: (max_batch / 16).max(1),
            decrease: 0.5,
            p99_budget_cycles: None,
        }
    }

    /// Same spec with a p99 latency budget (device cycles) attached.
    pub fn with_p99_budget(mut self, cycles: u64) -> Self {
        self.p99_budget_cycles = Some(cycles);
        self
    }
}

/// How a shard sizes its epochs.
#[derive(Clone, Debug, PartialEq)]
pub enum EpochSizing {
    /// The paper's model: a constant batch limit (the default, at 4 096).
    Fixed(usize),
    /// Closed-loop AIMD sizing driven by epoch-boundary feedback.
    Adaptive(AimdSpec),
}

impl EpochSizing {
    /// Largest batch this sizing can ever emit; pre-sizes heaps/rings.
    pub fn max_target(&self) -> usize {
        match self {
            EpochSizing::Fixed(n) => (*n).max(1),
            EpochSizing::Adaptive(spec) => spec.max_batch.max(1),
        }
    }

    /// True when epochs are sized by the closed-loop controller.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, EpochSizing::Adaptive(_))
    }
}

/// Signals from one finished epoch, gathered by the shard thread.
#[derive(Clone, Copy, Debug)]
pub struct EpochFeedback {
    /// Entries the epoch actually executed.
    pub batch: u64,
    /// Ingress queue depth observed when the epoch was emitted.
    pub queue_depth: u64,
    /// Entries parked in the combiner's reorder heap at emission.
    pub reorder_pending: u64,
    /// p99 request latency of this epoch, in device cycles.
    pub epoch_p99: u64,
}

/// One shard's batch target and the sizing that moves it, owned by the
/// shard thread that both reads the target and feeds it epochs.
#[derive(Debug)]
pub struct BatchController {
    sizing: EpochSizing,
    target: usize,
}

impl BatchController {
    pub fn new(sizing: EpochSizing) -> Self {
        let target = match &sizing {
            EpochSizing::Fixed(n) => (*n).max(1),
            EpochSizing::Adaptive(spec) => {
                assert!(spec.min_batch >= 1, "min_batch must be at least 1");
                assert!(
                    spec.max_batch >= spec.min_batch,
                    "max_batch {} below min_batch {}",
                    spec.max_batch,
                    spec.min_batch
                );
                assert!(
                    spec.decrease > 0.0 && spec.decrease < 1.0,
                    "decrease factor must be in (0, 1), got {}",
                    spec.decrease
                );
                spec.initial.clamp(spec.min_batch, spec.max_batch)
            }
        };
        BatchController { sizing, target }
    }

    /// Batch target for the next epoch.
    #[inline]
    pub fn target(&self) -> usize {
        self.target
    }

    /// Upper bound on any target this controller can publish.
    pub fn max_target(&self) -> usize {
        self.sizing.max_target()
    }

    pub fn is_adaptive(&self) -> bool {
        self.sizing.is_adaptive()
    }

    /// Applies one epoch's feedback. No-op for fixed sizing.
    pub fn on_epoch(&mut self, fb: &EpochFeedback) {
        let spec = match &self.sizing {
            EpochSizing::Fixed(_) => return,
            EpochSizing::Adaptive(spec) => spec,
        };
        let cur = self.target;
        let backlog = fb.queue_depth + fb.reorder_pending;
        let over_budget = spec
            .p99_budget_cycles
            .is_some_and(|budget| fb.epoch_p99 > budget);
        // Without a latency budget the only shrink signal is a target
        // that load can no longer fill: a badly underfilled epoch with
        // nothing left waiting behind it.
        let stale_target = spec.p99_budget_cycles.is_none()
            && backlog == 0
            && fb.batch < (cur / 4).max(1) as u64
            && cur > spec.min_batch;
        let deep_backlog = backlog >= (cur as u64).saturating_mul(4);
        self.target = if over_budget || stale_target {
            ((cur as f64 * spec.decrease) as usize).max(spec.min_batch)
        } else if deep_backlog && spec.p99_budget_cycles.is_none() {
            // Nothing to protect: open straight up to the backlog.
            (backlog.min(spec.max_batch as u64) as usize).max(cur)
        } else if deep_backlog {
            // Budgeted: double, so the p99 brake can catch an overshoot.
            cur.saturating_mul(2).min(spec.max_batch)
        } else if backlog >= cur as u64 {
            cur.saturating_add(spec.increase).min(spec.max_batch)
        } else {
            cur
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(batch: u64, queue_depth: u64, reorder_pending: u64, epoch_p99: u64) -> EpochFeedback {
        EpochFeedback {
            batch,
            queue_depth,
            reorder_pending,
            epoch_p99,
        }
    }

    #[test]
    fn fixed_sizing_never_moves() {
        let mut c = BatchController::new(EpochSizing::Fixed(4096));
        assert_eq!(c.target(), 4096);
        c.on_epoch(&fb(4096, 1 << 20, 0, u64::MAX));
        assert_eq!(c.target(), 4096);
        assert!(!c.is_adaptive());
    }

    #[test]
    fn backlog_grows_target_additively_to_max() {
        let spec = AimdSpec {
            min_batch: 64,
            max_batch: 1024,
            initial: 64,
            increase: 100,
            decrease: 0.5,
            p99_budget_cycles: None,
        };
        let mut c = BatchController::new(EpochSizing::Adaptive(spec));
        assert_eq!(c.target(), 64);
        // Backlogs below the 4x slow-start threshold grow additively.
        c.on_epoch(&fb(64, 128, 0, 10));
        assert_eq!(c.target(), 164);
        c.on_epoch(&fb(164, 300, 0, 10));
        assert_eq!(c.target(), 264);
        for _ in 0..20 {
            let cur = c.target() as u64;
            c.on_epoch(&fb(cur, 2 * cur, 0, 10));
        }
        assert_eq!(c.target(), 1024, "growth saturates at max_batch");
    }

    #[test]
    fn deep_backlog_opens_up_fast() {
        // No budget: nothing to protect, jump straight to the backlog
        // (capped at max_batch) instead of creeping additively.
        let mut c = BatchController::new(EpochSizing::Adaptive(AimdSpec::bounded(64, 16384)));
        c.on_epoch(&fb(64, 1 << 20, 0, 10));
        assert_eq!(c.target(), 16384, "huge backlog jumps the target to max");

        // Budgeted: double per epoch so the p99 brake keeps authority.
        let spec = AimdSpec::bounded(64, 16384).with_p99_budget(1_000);
        let mut c = BatchController::new(EpochSizing::Adaptive(spec));
        c.on_epoch(&fb(64, 1 << 20, 0, 500));
        assert_eq!(c.target(), 128);
        c.on_epoch(&fb(128, 1 << 20, 0, 500));
        assert_eq!(c.target(), 256);
        c.on_epoch(&fb(256, 1 << 20, 0, 2_000));
        assert_eq!(c.target(), 128, "a breach halves even mid-ramp");
    }

    #[test]
    fn p99_over_budget_shrinks_multiplicatively_to_min() {
        let spec = AimdSpec {
            min_batch: 100,
            max_batch: 4096,
            initial: 4096,
            increase: 64,
            decrease: 0.5,
            p99_budget_cycles: Some(1_000),
        };
        let mut c = BatchController::new(EpochSizing::Adaptive(spec));
        c.on_epoch(&fb(4096, 1 << 20, 0, 2_000));
        assert_eq!(c.target(), 2048, "budget breach beats backlog");
        for _ in 0..10 {
            c.on_epoch(&fb(2048, 1 << 20, 0, 2_000));
        }
        assert_eq!(c.target(), 100, "shrink saturates at min_batch");
    }

    #[test]
    fn within_budget_backlog_reopens_the_window() {
        let spec = AimdSpec {
            min_batch: 64,
            max_batch: 4096,
            initial: 512,
            increase: 128,
            decrease: 0.5,
            p99_budget_cycles: Some(1_000),
        };
        let mut c = BatchController::new(EpochSizing::Adaptive(spec));
        c.on_epoch(&fb(512, 1024, 0, 500));
        assert_eq!(c.target(), 640);
        // Light load inside budget: hold steady, don't thrash.
        c.on_epoch(&fb(12, 0, 0, 500));
        assert_eq!(c.target(), 640);
    }

    #[test]
    fn no_budget_mode_shrinks_stale_targets() {
        let spec = AimdSpec {
            min_batch: 64,
            max_batch: 4096,
            initial: 4096,
            increase: 128,
            decrease: 0.5,
            p99_budget_cycles: None,
        };
        let mut c = BatchController::new(EpochSizing::Adaptive(spec));
        // Tiny epoch, empty queues: the 4096 target is stale.
        c.on_epoch(&fb(3, 0, 0, 10));
        assert_eq!(c.target(), 2048);
        c.on_epoch(&fb(3, 0, 0, 10));
        assert_eq!(c.target(), 1024);
        // A half-filled epoch is not stale.
        c.on_epoch(&fb(600, 0, 0, 10));
        assert_eq!(c.target(), 1024);
    }

    #[test]
    fn initial_is_clamped_into_bounds() {
        let spec = AimdSpec {
            min_batch: 128,
            max_batch: 256,
            initial: 1 << 20,
            increase: 1,
            decrease: 0.5,
            p99_budget_cycles: None,
        };
        let c = BatchController::new(EpochSizing::Adaptive(spec));
        assert_eq!(c.target(), 256);
        assert_eq!(c.max_target(), 256);
    }

    #[test]
    fn bounded_spec_is_sane() {
        let spec = AimdSpec::bounded(0, 0);
        assert_eq!(spec.min_batch, 1);
        assert_eq!(spec.max_batch, 1);
        let spec = AimdSpec::bounded(32, 4096).with_p99_budget(77);
        assert_eq!(spec.p99_budget_cycles, Some(77));
        assert_eq!(spec.initial, 32);
        assert!(spec.increase >= 1);
    }
}
