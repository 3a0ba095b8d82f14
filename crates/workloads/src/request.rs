//! Request/response model shared by every concurrent tree in the workspace.

/// Key type: the paper evaluates 32-bit keys (§8.1).
pub type Key = u32;
/// Value type: the paper evaluates 32-bit values (§8.1).
pub type Value = u32;

/// The inclusive key window `[lo, hi]` a range query of `len` keys
/// starting at `lo` covers: `None` when `len == 0` (the response is the
/// empty vector and no tree is touched), saturating at the top of the key
/// space otherwise (slots past it stay `None`).
#[inline]
pub fn range_window(lo: u64, len: u32) -> Option<(u64, u64)> {
    (len > 0).then(|| (lo, lo.saturating_add(len as u64 - 1)))
}

/// Kind of operation carried by a request.
///
/// The paper groups `update`, `insertion`, and `deletion` under *update
/// requests* (processed by the update kernel) and `query` plus
/// `range query` under *query requests* (processed by the query kernel).
/// `Upsert` is the paper's update/insertion: it writes the value whether or
/// not the key currently exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Point lookup; returns the value visible at this request's timestamp.
    Query,
    /// Update-or-insert of a value.
    Upsert(Value),
    /// Removal of a key (a later query observes `None`).
    Delete,
    /// Range query over `[key, key + len - 1]`, inclusive; returns one
    /// optional value per key in the range, each as of this request's
    /// timestamp (§4.1.2).
    Range { len: u32 },
}

impl OpKind {
    /// True for operations the update kernel processes (they may modify the
    /// tree structure).
    #[inline]
    pub fn is_update(self) -> bool {
        matches!(self, OpKind::Upsert(_) | OpKind::Delete)
    }

    /// True for range queries.
    #[inline]
    pub fn is_range(self) -> bool {
        matches!(self, OpKind::Range { .. })
    }
}

/// A single timestamped request.
///
/// `ts` is the *logical timestamp*: the arrival order of the request in the
/// host-side buffer, which under the paper's linearizability semantics
/// determines the outcome of conflicting requests (§4.1.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub key: Key,
    pub op: OpKind,
    pub ts: u64,
}

impl Request {
    pub fn query(key: Key, ts: u64) -> Self {
        Request {
            key,
            op: OpKind::Query,
            ts,
        }
    }
    pub fn upsert(key: Key, value: Value, ts: u64) -> Self {
        Request {
            key,
            op: OpKind::Upsert(value),
            ts,
        }
    }
    pub fn delete(key: Key, ts: u64) -> Self {
        Request {
            key,
            op: OpKind::Delete,
            ts,
        }
    }
    pub fn range(key: Key, len: u32, ts: u64) -> Self {
        Request {
            key,
            op: OpKind::Range { len },
            ts,
        }
    }
}

/// Result of a request, in the same position as the request in its batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Point-query result: the value at the request's timestamp, if any.
    Value(Option<Value>),
    /// Acknowledgement for upsert/delete.
    Done,
    /// Range-query result: slot `i` holds the value of `key + i` at the
    /// request's timestamp, if that key exists at that time.
    Range(Vec<Option<Value>>),
}

/// A batch of concurrent requests, buffered host-side in arrival order and
/// shipped to the device in one transfer (§2.1, §7).
#[derive(Clone, Debug, Default)]
pub struct Batch {
    pub requests: Vec<Request>,
}

impl Batch {
    pub fn new(requests: Vec<Request>) -> Self {
        Batch { requests }
    }

    /// Builds a batch from operations, assigning logical timestamps from the
    /// arrival order.
    pub fn from_ops(ops: impl IntoIterator<Item = (Key, OpKind)>) -> Self {
        let requests = ops
            .into_iter()
            .enumerate()
            .map(|(ts, (key, op))| Request {
                key,
                op,
                ts: ts as u64,
            })
            .collect();
        Batch { requests }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_classification() {
        assert!(OpKind::Upsert(3).is_update());
        assert!(OpKind::Delete.is_update());
        assert!(!OpKind::Query.is_update());
        assert!(!OpKind::Range { len: 4 }.is_update());
        assert!(OpKind::Range { len: 4 }.is_range());
    }

    #[test]
    fn batch_from_ops_assigns_timestamps_in_arrival_order() {
        let b = Batch::from_ops(vec![
            (5, OpKind::Query),
            (7, OpKind::Upsert(1)),
            (5, OpKind::Delete),
        ]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.requests[0].ts, 0);
        assert_eq!(b.requests[1].ts, 1);
        assert_eq!(b.requests[2].ts, 2);
        assert_eq!(b.requests[2].op, OpKind::Delete);
    }

    #[test]
    fn range_window_is_inclusive_empty_aware_and_saturating() {
        assert_eq!(range_window(10, 4), Some((10, 13)));
        assert_eq!(range_window(0, 1), Some((0, 0)));
        assert_eq!(range_window(0, 0), None);
        assert_eq!(
            range_window(u64::MAX - 1, 8),
            Some((u64::MAX - 1, u64::MAX))
        );
    }

    #[test]
    fn request_constructors() {
        assert_eq!(Request::query(1, 9).op, OpKind::Query);
        assert_eq!(Request::upsert(1, 2, 9).op, OpKind::Upsert(2));
        assert_eq!(Request::delete(1, 9).op, OpKind::Delete);
        assert_eq!(Request::range(1, 8, 9).op, OpKind::Range { len: 8 });
    }
}
