//! The one fuzz driver. A run is a [`Fuzz`] value — the settings every
//! leg shares plus the [`Leg`] that says how its cases are seeded,
//! generated and checked — and [`Fuzz::run`] is the one case loop: derive
//! each case's seed, generate its input, check it, ddmin-shrink a failing
//! request list, and report one [`Failure`] whose replay line comes from
//! the same flag table that parses the command line.

use crate::churn::{run_churn_case, run_churn_serve_case};
use crate::cli::{self, Cli, Flag, FlagKind};
use crate::coalesce::run_coalesce_case;
use crate::diff::{build_tree, check_tree_case, TreeKind, Violation};
use crate::fault::{FaultSpec, FaultyTree};
use crate::flag;
use crate::gen::{adversarial_batch, dense_pairs, disjoint_batch, GenOptions, Profile};
use crate::serve::{fuzz_shard_map, run_serve_case};
use crate::shrink::shrink;
use eirene_baselines::common::ConcurrentTree;
use eirene_sim::DeviceConfig;
use eirene_workloads::Request;

/// SplitMix64 step: every case, round and device seed derives through it.
pub(crate) use eirene_sim::mix64 as mix;

/// The four case providers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Leg {
    /// One adversarial batch on a fresh tree per case, across four trees.
    Tree,
    /// Adversarial streams through a fresh sharded service per case.
    Serve,
    /// Delete-heavy rounds on one long-lived tree, then a serve sub-leg.
    Churn,
    /// A coalesced tree and its coalesce-off twin through a pivot-cache
    /// build → invalidate → rebuild cycle.
    Coalesce,
}

impl Leg {
    pub const ALL: [Leg; 4] = [Leg::Tree, Leg::Serve, Leg::Churn, Leg::Coalesce];

    /// The command-line switch selecting the leg (the tree leg has none).
    pub fn switch(self) -> Option<&'static str> {
        match self {
            Leg::Tree => None,
            Leg::Serve => Some("--serve"),
            Leg::Churn => Some("--churn"),
            Leg::Coalesce => Some("--coalesce"),
        }
    }

    pub fn name(self) -> &'static str {
        self.switch().map_or("tree", |s| &s[2..])
    }

    /// The leg's usage line, generated from its flag table.
    pub fn usage(self) -> String {
        let about = match self {
            Leg::Tree => "differential fuzz of four trees",
            Leg::Serve => "sharded-serving fuzz",
            Leg::Churn => "churn/reclamation fuzz on one long-lived tree",
            Leg::Coalesce => "combine-path fuzz against a coalesce-off twin",
        };
        format!("{}   ({about})", cli::usage::<Fuzz>(&[self]))
    }
}

/// One fuzz run. Each field is set by one entry of a leg's flag table;
/// fields outside the running leg's table keep their defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct Fuzz {
    pub leg: Leg,
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Cases to run (tree leg: per tree; churn: before its serve cases).
    pub cases: usize,
    /// Requests per batch (per round for churn and coalesce).
    pub batch_size: usize,
    /// Keys of generated requests are drawn from `0..=domain`.
    pub domain: u32,
    /// Keys pre-loaded into every fresh tree or service (`1..=initial_keys`).
    pub initial_keys: u32,
    /// Run devices under the seeded deterministic scheduler, so a case's
    /// warp interleaving replays from its seed too. Deterministic
    /// launches serialize, so this costs wall-clock.
    pub deterministic: bool,
    /// Replay mode: every case takes this seed, and the run holds the
    /// cases one seed can produce — each generator profile once for tree
    /// and serve, one case (plus one serve case) for churn, one for
    /// coalesce. A [`Failure`]'s replay line sets it.
    pub repro: Option<u64>,
    /// Tree leg: trees to fuzz.
    pub trees: Vec<TreeKind>,
    /// Tree leg: corrupt responses (testing the driver itself).
    pub fault: Option<FaultSpec>,
    /// Serve: shards per service, boundaries spread over the domain.
    pub shards: usize,
    /// Serve: epoch size limit, well below the batch so every case
    /// crosses several epoch boundaries per shard.
    pub epoch_limit: usize,
    /// Serve: racing submitter threads per case.
    pub submitters: usize,
    /// Serve: tenants, each with a quota below its per-shard share (0 or 1:
    /// no tenants).
    pub tenants: usize,
    /// Serve: hash sharding (every range scatter-gathers).
    pub hash: bool,
    /// Churn: rounds applied to each case's tree.
    pub rounds: usize,
    /// Churn: live blocks after the last round may be at most this
    /// factor times the post-build count.
    pub occupancy_factor: u64,
    /// Churn: serve-leg cases after the single-tree ones.
    pub serve_cases: usize,
}

impl Fuzz {
    /// The leg's defaults: the tree leg schedules deterministically, the
    /// other three under the OS.
    pub fn new(leg: Leg) -> Fuzz {
        let (seed, cases, batch_size) = match leg {
            Leg::Tree => (0xE1BEE5, 100, 256),
            Leg::Serve => (0x5E4E5E, 500, 192),
            Leg::Churn => (0xC4124, 500, 192),
            Leg::Coalesce => (0xC0A1E5CE, 200, 256),
        };
        Fuzz {
            leg,
            seed,
            cases,
            batch_size,
            domain: 4096,
            initial_keys: 1024,
            deterministic: leg == Leg::Tree,
            repro: None,
            trees: TreeKind::FUZZED.to_vec(),
            fault: None,
            shards: 4,
            epoch_limit: 48,
            submitters: 1,
            tenants: 0,
            hash: false,
            rounds: 6,
            occupancy_factor: 4,
            serve_cases: 8,
        }
    }

    /// The device every case builds, seeded when scheduling is
    /// deterministic.
    pub(crate) fn device(&self, seed: u64) -> DeviceConfig {
        let cfg = DeviceConfig::test_small();
        if self.deterministic {
            cfg.with_deterministic_sched(seed)
        } else {
            cfg
        }
    }

    /// The run's cases in order. Case `i` of a leg is seeded
    /// `mix(seed ^ mix(i) ^ salt)`: the salt is the tree label's length
    /// for the tree leg, 0 for serve and churn, `0x5E4E` for churn's
    /// serve cases and `0xC0A1` for coalesce.
    pub fn cases(&self) -> Vec<Case> {
        let replay = self.repro.is_some();
        let runs = if replay { 1 } else { self.cases };
        let profiles = if replay {
            Profile::ALL.len()
        } else {
            self.cases
        };
        let case = |index: usize, salt: u64, kind| Case {
            index,
            seed: self
                .repro
                .unwrap_or_else(|| mix(self.seed ^ mix(index as u64) ^ salt)),
            kind,
        };
        let profile = |i: usize| Profile::ALL[i % Profile::ALL.len()];
        match self.leg {
            // Baselines only serialize same-key races, so they get
            // key-disjoint batches (no profile).
            Leg::Tree => (0..profiles)
                .flat_map(|i| {
                    self.trees.iter().map(move |&t| {
                        let p = t.linearizable().then(|| profile(i));
                        case(i, t.token().len() as u64, CaseKind::Tree(t, p))
                    })
                })
                .collect(),
            Leg::Serve => (0..profiles)
                .map(|i| case(i, 0, CaseKind::Serve(profile(i))))
                .collect(),
            Leg::Churn => {
                let serve = if replay {
                    self.serve_cases.min(1)
                } else {
                    self.serve_cases
                };
                (0..runs)
                    .map(|i| case(i, 0, CaseKind::Churn))
                    .chain((runs..runs + serve).map(|i| case(i, 0x5E4E, CaseKind::ChurnServe)))
                    .collect()
            }
            Leg::Coalesce => (0..runs)
                .map(|i| case(i, 0xC0A1, CaseKind::Coalesce))
                .collect(),
        }
    }

    /// The request list a tree or serve case checks — the input ddmin
    /// shrinks. Round-sequence cases regenerate their rounds from the
    /// seed instead.
    fn requests(&self, case: &Case) -> Option<Vec<Request>> {
        let gen = GenOptions {
            domain: self.domain,
            batch_size: self.batch_size,
        };
        match case.kind {
            CaseKind::Tree(_, None) => Some(disjoint_batch(case.seed, &gen).requests),
            // The service re-timestamps at admission; only order matters.
            CaseKind::Tree(_, Some(p)) | CaseKind::Serve(p) => {
                Some(adversarial_batch(case.seed, p, &gen).requests)
            }
            _ => None,
        }
    }

    /// Checks one case on `reqs` (its generated or a shrunk request list;
    /// ignored by round-sequence cases). Returns the case's coverage
    /// number: churn's occupancy percent, coalesce's cache hits, else 0.
    fn check(&self, case: &Case, reqs: &[Request]) -> Result<u64, (Violation, At)> {
        let pairs = dense_pairs(self.initial_keys);
        let device_seed = mix(case.seed);
        let whole = |r: Result<(), Violation>| r.map(|()| 0).map_err(|v| (v, At::default()));
        match case.kind {
            CaseKind::Tree(tree, _) => {
                let headroom = (self.batch_size * 2).max(1 << 12);
                let built = build_tree(tree, &pairs, self.device(device_seed), headroom);
                let mut built: Box<dyn ConcurrentTree> = match self.fault {
                    Some(spec) => Box::new(FaultyTree::new(built, spec)),
                    None => built,
                };
                whole(check_tree_case(built.as_mut(), &pairs, reqs))
            }
            CaseKind::Serve(_) => {
                let map = fuzz_shard_map(self.shards, self.domain);
                whole(run_serve_case(self, &map, &pairs, device_seed, reqs))
            }
            CaseKind::Churn => run_churn_case(self, case.seed),
            CaseKind::ChurnServe => whole(run_churn_serve_case(self, case.seed)),
            CaseKind::Coalesce => run_coalesce_case(self, case.seed),
        }
    }

    /// Runs every case; stops at the first violation, shrinking its
    /// request list when it has one (each probe re-runs the case from
    /// scratch with the same seeds).
    pub fn run(&self) -> Outcome {
        let cases = self.cases();
        let mut coverage = 0;
        for case in &cases {
            let reqs = self.requests(case);
            let first = match self.check(case, reqs.as_deref().unwrap_or_default()) {
                Ok(c) if self.leg == Leg::Churn => {
                    coverage = coverage.max(c);
                    continue;
                }
                Ok(c) => {
                    coverage += c;
                    continue;
                }
                Err(first) => first,
            };
            let (shrunk, (violation, at)) = match reqs {
                Some(reqs) => {
                    let shrunk = shrink(&reqs, |cand| self.check(case, cand).is_err());
                    let last = self.check(case, &shrunk).err().unwrap_or(first);
                    (Some(shrunk), last)
                }
                None => (None, first),
            };
            let mut replay = Fuzz {
                repro: Some(case.seed),
                ..self.clone()
            };
            if let CaseKind::Tree(tree, _) = case.kind {
                replay.trees = vec![tree];
            }
            return Outcome::Failed(Box::new(Failure {
                leg: self.leg,
                case: *case,
                deterministic: self.deterministic && case.kind != CaseKind::ChurnServe,
                shrunk,
                violation,
                at,
                replay: replay.command(),
            }));
        }
        Outcome::Passed {
            cases: cases.len(),
            coverage,
        }
    }

    /// Parses `eirene-bench fuzz` arguments: a leg switch anywhere picks
    /// the leg, whose flag table then reads every other argument.
    pub fn parse(args: &[String]) -> Result<Fuzz, String> {
        cli::parse(args)
    }

    /// The command line [`parse`](Self::parse) reads back into exactly
    /// these settings.
    pub fn command(&self) -> String {
        cli::command(self)
    }
}

impl Cli for Fuzz {
    type Mode = Leg;
    const MODES: &'static [Leg] = &Leg::ALL;

    fn switch(leg: Leg) -> Option<&'static str> {
        leg.switch()
    }

    fn defaults(leg: Leg) -> Fuzz {
        Fuzz::new(leg)
    }

    fn mode(&self) -> Leg {
        self.leg
    }

    fn flags(leg: Leg) -> Vec<&'static Flag<Fuzz>> {
        let own: &'static [Flag<Fuzz>] = match leg {
            Leg::Tree => TREE_FLAGS,
            Leg::Serve => SERVE_FLAGS,
            Leg::Churn => CHURN_FLAGS,
            Leg::Coalesce => &[],
        };
        COMMON_FLAGS.iter().chain(own).collect()
    }

    fn head(&self) -> String {
        "eirene-bench fuzz".into()
    }
}

/// One case of a run: its position, the seed it replays from, and what
/// it checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Case {
    /// Index within the leg (per tree for the tree leg; churn's serve
    /// cases continue the numbering).
    pub index: usize,
    /// The seed `--repro-seed` takes: it generates the case's batch or
    /// rounds, and device seeds derive from it.
    pub seed: u64,
    pub kind: CaseKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseKind {
    /// One batch on a fresh tree: adversarial under a profile, or
    /// key-disjoint (`None`) for the baselines.
    Tree(TreeKind, Option<Profile>),
    /// One adversarial stream through a fresh service.
    Serve(Profile),
    /// Churn rounds on one tree.
    Churn,
    /// The churn rounds as one stream through a service with racing
    /// submitters (always OS-scheduled).
    ChurnServe,
    /// Coalesce rounds on the twin trees.
    Coalesce,
}

/// Where inside a round-sequence case a violation surfaced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct At {
    pub round: Option<usize>,
    /// Which of the coalesce twins diverged.
    pub twin: Option<&'static str>,
}

impl At {
    pub fn round(round: usize) -> At {
        At {
            round: Some(round),
            twin: None,
        }
    }
}

/// A violation found by the driver: enough to read it and to replay it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub leg: Leg,
    pub case: Case,
    /// Whether the case's devices ran deterministically, seeded from
    /// the case seed.
    pub deterministic: bool,
    /// The ddmin-minimal failing request list (tree and serve cases).
    pub shrunk: Option<Vec<Request>>,
    pub violation: Violation,
    pub at: At,
    /// `eirene-bench fuzz` command replaying the case.
    pub replay: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let case = &self.case;
        write!(f, "{} violation (case {}", self.leg.name(), case.index)?;
        match case.kind {
            CaseKind::Tree(t, Some(p)) => write!(f, ", {}, profile {p:?}", t.token())?,
            CaseKind::Tree(t, None) => write!(f, ", {}, key-disjoint batch", t.token())?,
            CaseKind::Serve(p) => write!(f, ", profile {p:?}")?,
            CaseKind::ChurnServe => write!(f, ", serve leg")?,
            CaseKind::Churn | CaseKind::Coalesce => {}
        }
        writeln!(
            f,
            ", {} seed {:#x}, {})",
            if self.shrunk.is_some() {
                "batch"
            } else {
                "case"
            },
            case.seed,
            if self.deterministic {
                "deterministic scheduling seeded from it"
            } else {
                "OS scheduling"
            }
        )?;
        write!(f, "  ")?;
        if let Some(round) = self.at.round {
            write!(f, "round {round}: ")?;
        }
        if let Some(twin) = self.at.twin {
            write!(f, "{twin} tree: ")?;
        }
        writeln!(f, "{}", self.violation)?;
        if let Some(shrunk) = &self.shrunk {
            writeln!(f, "  minimal reproducer ({} requests):", shrunk.len())?;
            for r in shrunk {
                writeln!(f, "    {r:?}")?;
            }
        }
        write!(f, "  replay: {}", self.replay)
    }
}

/// Result of a run.
#[derive(Debug)]
pub enum Outcome {
    /// Every case agreed with its oracle.
    Passed {
        cases: usize,
        /// The leg's coverage number: churn's worst live/post-build
        /// occupancy in percent, coalesce's pivot-cache hits summed over
        /// cases, 0 for tree and serve.
        coverage: u64,
    },
    Failed(Box<Failure>),
}

/// Seeds print as `{:#x}`; decimal parses too.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

const COMMON_FLAGS: &[Flag<Fuzz>] = &[
    flag!(@value ["--seed"] "N", |f| format!("{:#x}", f.seed), |f, v| f.seed = parse_seed(v)?),
    flag!(["--cases", "--batches"] "N", cases),
    flag!(["--batch"] "N", batch_size),
    flag!(["--domain"] "N", domain),
    flag!(["--initial-keys"] "N", initial_keys),
    flag!(["--det", "--deterministic"], deterministic),
    Flag {
        names: &["--os-sched"],
        kind: FlagKind::Switch(|f| !f.deterministic, |f| f.deterministic = false),
    },
    flag!(@value ["--repro-seed"] "HEX",
        |f| f.repro.map(|s| format!("{s:#x}")).unwrap_or_default(),
        |f, v| f.repro = Some(parse_seed(v)?)),
];

const TREE_FLAGS: &[Flag<Fuzz>] = &[
    flag!(@value ["--tree"] "eirene|eirene-combining|stm|lock[,...]",
        |f| f.trees.iter().map(|t| t.token()).collect::<Vec<_>>().join(","),
        |f, v| f.trees = v.split(',').map(TreeKind::parse).collect::<Option<_>>()?),
    Flag {
        names: &["--inject-fault"],
        kind: FlagKind::Switch(
            |f| f.fault.is_some(),
            |f| f.fault = Some(FaultSpec::default()),
        ),
    },
];

const SERVE_FLAGS: &[Flag<Fuzz>] = &[
    flag!(["--shards"] "N", shards),
    flag!(["--submitters"] "N", submitters),
    flag!(["--epoch-limit"] "N", epoch_limit),
    flag!(["--tenants"] "N", tenants),
    flag!(["--hash"], hash),
];

const CHURN_FLAGS: &[Flag<Fuzz>] = &[
    flag!(["--rounds"] "N", rounds),
    flag!(["--serve-cases"] "N", serve_cases),
    flag!(["--occupancy-factor"] "N", occupancy_factor),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_trees_pass_a_short_run() {
        let fuzz = Fuzz {
            cases: 3,
            batch_size: 96,
            domain: 1024,
            initial_keys: 512,
            deterministic: false,
            ..Fuzz::new(Leg::Tree)
        };
        match fuzz.run() {
            Outcome::Passed { cases, .. } => assert_eq!(cases, 3 * TreeKind::FUZZED.len()),
            Outcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn repro_seed_replays_a_found_failure() {
        let fuzz = Fuzz {
            seed: 7,
            cases: 50,
            batch_size: 64,
            domain: 512,
            initial_keys: 512,
            trees: vec![TreeKind::Eirene],
            deterministic: false,
            fault: Some(FaultSpec::default()),
            ..Fuzz::new(Leg::Tree)
        };
        let found = match fuzz.run() {
            Outcome::Failed(f) => f,
            Outcome::Passed { cases, .. } => panic!("no failure to replay across {cases} cases"),
        };
        assert!(found.replay.contains("--repro-seed"), "{}", found.replay);
        let args: Vec<String> = found.replay.split(' ').skip(2).map(String::from).collect();
        let replayed = match Fuzz::parse(&args).expect("replay line parses").run() {
            Outcome::Failed(f) => f,
            Outcome::Passed { cases, .. } => {
                panic!("{} did not reproduce in {cases} cases", found.replay)
            }
        };
        assert_eq!(replayed.case.seed, found.case.seed);
        assert!(!replayed.shrunk.expect("tree cases shrink").is_empty());
    }

    #[test]
    fn unknown_flags_and_bad_values_are_rejected() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(
            Fuzz::parse(&args("--shards 3")).is_err(),
            "serve flag on the tree leg"
        );
        assert!(Fuzz::parse(&args("--churn --hash")).is_err());
        assert!(Fuzz::parse(&args("--serve --shards x")).is_err());
        assert!(Fuzz::parse(&args("--tree nope")).is_err());
        assert!(Fuzz::parse(&args("--seed")).is_err());
    }
}
