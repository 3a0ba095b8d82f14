//! Sequential oracle defining linearizable behaviour.
//!
//! Linearizability (§6): the results of concurrently processed requests
//! must equal the results of executing the same requests sequentially in
//! their logical-timestamp order. The oracle *is* that sequential
//! execution, over `std::collections::BTreeMap`, so every concurrent tree
//! in the workspace can be differential-tested against it.

use crate::request::{Batch, Key, OpKind, Request, Response, Value};
use std::collections::BTreeMap;

/// Anything that can execute a batch of concurrent requests and produce one
/// response per request, positionally aligned with the batch.
pub trait Oracle {
    fn run_batch(&mut self, batch: &Batch) -> Vec<Response>;
}

/// The reference implementation: a plain ordered map, with requests applied
/// one at a time in timestamp order.
#[derive(Clone, Debug, Default)]
pub struct SequentialOracle {
    map: BTreeMap<Key, Value>,
}

impl SequentialOracle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-loads the initial contents (mirrors the tree's bulk build).
    pub fn load(pairs: &[(Key, Value)]) -> Self {
        SequentialOracle {
            map: pairs.iter().copied().collect(),
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Read-only view of the current contents, for state comparison after a
    /// batch.
    pub fn contents(&self) -> &BTreeMap<Key, Value> {
        &self.map
    }

    fn apply(&mut self, req: &Request) -> Response {
        match req.op {
            OpKind::Query => Response::Value(self.map.get(&req.key).copied()),
            OpKind::Upsert(v) => {
                self.map.insert(req.key, v);
                Response::Done
            }
            OpKind::Delete => {
                self.map.remove(&req.key);
                Response::Done
            }
            OpKind::Range { len } => {
                let lo = req.key;
                let slots = (0..len)
                    .map(|i| lo.checked_add(i).and_then(|k| self.map.get(&k).copied()))
                    .collect();
                Response::Range(slots)
            }
        }
    }
}

impl Oracle for SequentialOracle {
    /// Applies the batch in timestamp order and returns responses in the
    /// batch's *positional* order, so they can be compared element-wise with
    /// a concurrent implementation's output.
    fn run_batch(&mut self, batch: &Batch) -> Vec<Response> {
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by_key(|&i| batch.requests[i].ts);
        let mut responses = vec![Response::Done; batch.len()];
        for i in order {
            responses[i] = self.apply(&batch.requests[i]);
        }
        responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Batch;

    #[test]
    fn query_sees_latest_preceding_upsert() {
        let mut o = SequentialOracle::new();
        let b = Batch::from_ops(vec![
            (5, OpKind::Upsert(10)),
            (5, OpKind::Query),
            (5, OpKind::Upsert(20)),
            (5, OpKind::Query),
        ]);
        let r = o.run_batch(&b);
        assert_eq!(r[1], Response::Value(Some(10)));
        assert_eq!(r[3], Response::Value(Some(20)));
    }

    #[test]
    fn delete_makes_following_query_null() {
        let mut o = SequentialOracle::load(&[(5, 55)]);
        let b = Batch::from_ops(vec![(5, OpKind::Delete), (5, OpKind::Query)]);
        let r = o.run_batch(&b);
        assert_eq!(r[1], Response::Value(None));
    }

    #[test]
    fn respects_timestamp_order_not_positional_order() {
        let mut o = SequentialOracle::new();
        // Positionally the query comes first, but its timestamp is later.
        let b = Batch::new(vec![Request::query(9, 1), Request::upsert(9, 77, 0)]);
        let r = o.run_batch(&b);
        assert_eq!(r[0], Response::Value(Some(77)));
    }

    #[test]
    fn range_query_reflects_state_at_its_timestamp() {
        let mut o = SequentialOracle::load(&[(2, 20), (4, 40)]);
        let b = Batch::from_ops(vec![
            (3, OpKind::Upsert(30)),       // ts 0
            (2, OpKind::Range { len: 4 }), // ts 1: sees 2,3,4
            (4, OpKind::Delete),           // ts 2
            (2, OpKind::Range { len: 4 }), // ts 3: sees 2,3 only
        ]);
        let r = o.run_batch(&b);
        assert_eq!(
            r[1],
            Response::Range(vec![Some(20), Some(30), Some(40), None])
        );
        assert_eq!(r[3], Response::Range(vec![Some(20), Some(30), None, None]));
    }

    #[test]
    fn range_at_domain_edge_does_not_overflow() {
        let mut o = SequentialOracle::load(&[(u32::MAX, 1)]);
        let b = Batch::from_ops(vec![(u32::MAX - 1, OpKind::Range { len: 4 })]);
        let r = o.run_batch(&b);
        assert_eq!(r[0], Response::Range(vec![None, Some(1), None, None]));
    }

    #[test]
    fn contents_track_final_state() {
        let mut o = SequentialOracle::new();
        let b = Batch::from_ops(vec![
            (1, OpKind::Upsert(1)),
            (2, OpKind::Upsert(2)),
            (1, OpKind::Delete),
        ]);
        o.run_batch(&b);
        assert_eq!(o.len(), 1);
        assert_eq!(o.contents().get(&2), Some(&2));
    }
}
