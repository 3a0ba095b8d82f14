//! Deliberate fault injection: a wrapper that corrupts a tree's responses
//! so the fuzz harness can be tested end-to-end.
//!
//! A differential fuzzer that has never caught anything gives no evidence
//! it *can*. Wrapping a correct tree in [`FaultyTree`] plants a precise,
//! seed-independent off-by-one; the harness must find it and shrink the
//! triggering batch to a minimal reproducer (the acceptance test in
//! `tests/fault_injection.rs` requires ≤ 8 requests).

use eirene_baselines::common::{BatchRun, ConcurrentTree};
use eirene_btree::build::TreeHandle;
use eirene_sim::Device;
use eirene_workloads::{Batch, Response};

/// Which responses to corrupt: point-query results for keys congruent to
/// `residue` modulo `key_mod` come back off by one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    pub key_mod: u32,
    pub residue: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            key_mod: 64,
            residue: 7,
        }
    }
}

impl FaultSpec {
    fn triggers(&self, key: u32) -> bool {
        key % self.key_mod.max(1) == self.residue
    }
}

/// A tree whose point-query responses are off by one for the keys the
/// [`FaultSpec`] selects. The tree itself is untouched — only the reported
/// responses lie, exactly like a result-calculation bug would.
pub struct FaultyTree {
    inner: Box<dyn ConcurrentTree>,
    spec: FaultSpec,
}

impl FaultyTree {
    pub fn new(inner: Box<dyn ConcurrentTree>, spec: FaultSpec) -> Self {
        FaultyTree { inner, spec }
    }
}

impl ConcurrentTree for FaultyTree {
    fn run_batch(&mut self, batch: &Batch) -> BatchRun {
        let mut run = self.inner.run_batch(batch);
        for (req, resp) in batch.requests.iter().zip(run.responses.iter_mut()) {
            if self.spec.triggers(req.key) {
                if let Response::Value(Some(v)) = resp {
                    *v = v.wrapping_add(1);
                }
            }
        }
        run
    }

    fn device(&self) -> &Device {
        self.inner.device()
    }

    fn handle(&self) -> &TreeHandle {
        self.inner.handle()
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{build_tree, TreeKind};
    use crate::gen::dense_pairs;
    use eirene_sim::DeviceConfig;
    use eirene_workloads::Request;

    #[test]
    fn fault_perturbs_only_selected_queries() {
        let pairs = dense_pairs(256);
        let spec = FaultSpec {
            key_mod: 64,
            residue: 7,
        };
        let mut tree = FaultyTree::new(
            build_tree(
                TreeKind::Eirene,
                &pairs,
                DeviceConfig::test_small(),
                1 << 12,
            ),
            spec,
        );
        let batch = Batch::new(vec![Request::query(7, 0), Request::query(8, 1)]);
        let got = tree.run_batch(&batch).responses;
        // Key 7 maps to 8 but the fault reports 9; key 8 is untouched.
        assert_eq!(got[0], Response::Value(Some(9)));
        assert_eq!(got[1], Response::Value(Some(9)));
        // ^ key 8 genuinely maps to 9 (dense_pairs maps k -> k+1): the
        // faulty and honest answers coincide here by construction, which
        // is exactly why the harness needs the oracle to tell them apart.
        let mut honest = build_tree(
            TreeKind::Eirene,
            &pairs,
            DeviceConfig::test_small(),
            1 << 12,
        );
        let want = honest.run_batch(&batch).responses;
        assert_ne!(got[0], want[0]);
        assert_eq!(got[1], want[1]);
    }
}
