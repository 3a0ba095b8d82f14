//! Correctness tally of a round, taken outside the timed section: every
//! response is compared with the sequential oracle, every structural check
//! that fails counts as one failed operation.

use eirene_serve::Outcome;
use eirene_workloads::{Batch, Oracle, Request, Response, SequentialOracle};

/// Operations attempted and failed in one round. An operation fails when
/// its ticket did not resolve `Done`, when its response differs from the
/// oracle's, or when it is a structural check that did not hold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Compares one batch's responses with the oracle's, position by
    /// position (a missing response is a failed one).
    pub fn responses(&mut self, got: &[Response], want: &[Response]) {
        self.attempted += want.len() as u64;
        let equal = got.iter().zip(want).filter(|(g, w)| g == w).count();
        self.failed += (want.len() - equal) as u64;
    }

    /// Replays a served history against the oracle. `history` pairs each
    /// request — `ts` being the admission timestamp its ticket reported,
    /// `None` if it never drew one — with the outcome its caller saw. The
    /// service linearizes at admission timestamps, so one oracle pass in
    /// timestamp order defines every response.
    pub fn outcomes(
        &mut self,
        history: Vec<(Request, Option<u64>, Outcome)>,
        oracle: &mut SequentialOracle,
    ) {
        self.attempted += history.len() as u64;
        let mut requests = Vec::with_capacity(history.len());
        let mut got = Vec::with_capacity(history.len());
        for (request, ts, outcome) in history {
            match (ts, outcome) {
                (Some(ts), Outcome::Done(response)) => {
                    requests.push(Request { ts, ..request });
                    got.push(response);
                }
                // Shed, timed out, or resolved without admission: the
                // caller did not get an answer.
                _ => self.failed += 1,
            }
        }
        let batch = Batch::new(requests);
        let want = oracle.run_batch(&batch);
        let equal = got.iter().zip(&want).filter(|(g, w)| g == w).count();
        self.failed += (want.len() - equal) as u64;
    }

    /// Counts one structural check (tree validation, final contents, phase
    /// rows summing to totals) as an attempted operation.
    pub fn structure(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("structural check failed: {what}: {e}");
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_workloads::OpKind;

    #[test]
    fn failed_share_counts_a_corrupted_response_and_a_rejected_ticket() {
        let mut oracle = SequentialOracle::load(&[(2, 3), (4, 5)]);
        let request = |key, op| Request { key, op, ts: 0 };
        let history = vec![
            // Listed first but admitted last: timestamp order decides.
            (
                request(4, OpKind::Query),
                Some(13),
                Outcome::Done(Response::Value(Some(9))),
            ),
            (
                request(2, OpKind::Query),
                Some(10),
                Outcome::Done(Response::Value(Some(3))),
            ),
            (
                request(4, OpKind::Upsert(9)),
                Some(11),
                Outcome::Done(Response::Done),
            ),
            // Corrupted: the upsert at timestamp 11 precedes this query.
            (
                request(4, OpKind::Query),
                Some(12),
                Outcome::Done(Response::Value(Some(5))),
            ),
            // Shed at admission: never answered.
            (request(2, OpKind::Query), None, Outcome::Rejected),
        ];
        let mut tally = Tally::default();
        tally.outcomes(history, &mut oracle);
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(tally.failed_share(), 0.4);
    }

    #[test]
    fn batch_responses_and_structural_checks_are_tallied() {
        let mut tally = Tally::default();
        let want = vec![
            Response::Done,
            Response::Value(None),
            Response::Value(Some(1)),
        ];
        tally.responses(&want, &want);
        assert_eq!(tally.failed, 0);
        tally.responses(&[Response::Done, Response::Value(Some(7))], &want);
        // One differs, one is missing.
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                failed: 2
            }
        );
        tally.structure("validate", Ok(()));
        tally.structure("validate", Err("leaf chain broken".into()));
        assert_eq!(
            tally,
            Tally {
                attempted: 8,
                failed: 3
            }
        );
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
