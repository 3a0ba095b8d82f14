//! B+tree substrate on the device arena.
//!
//! The tree layout shared by Eirene and both baselines (the paper's trees
//! differ in *concurrency control*, not in structure): a regular B+tree
//! whose inner nodes hold keys and child pointers and whose leaves hold
//! keys and values plus a right-sibling link, entirely resident in device
//! global memory (§7).
//!
//! This crate provides:
//! * the node layout and typed accessors ([`node`]);
//! * host-side bulk build from sorted pairs, including the RF (range
//!   field) initialization required by locality-aware warp reorganization
//!   (§5);
//! * the tree algorithm itself, written once ([`ops`]: top-down descent
//!   with preemptive split, at-floor borrow/merge, root collapse,
//!   right-hop, leaf upsert/delete/query) over an access policy
//!   ([`access`]): transactional for the device kernels, direct for the
//!   host;
//! * host-side reference operations ([`refops`]: get/upsert/delete are
//!   the direct-policy instantiation of [`ops`]; range/contents read the
//!   leaf chain) used by tests, examples, the fuzzers and shard migration;
//! * structural validation ([`validate`]) asserting the B+tree invariants
//!   (sorted keys, consistent child separators, balanced height, linked
//!   leaves, occupancy bounds).

pub mod access;
pub mod build;
pub mod node;
pub mod ops;
pub mod refops;
pub mod validate;

pub use build::{bulk_build, TreeHandle};
pub use node::{NodeRef, FANOUT, NODE_WORDS};
