//! # edkm-dist
//!
//! The simulated learner group behind eDKM's sharding (Section 2.3 of the
//! paper) and the fully synchronous data-parallel training setup (Section 3,
//! 8×A100 under FSDP).
//!
//! The paper trains with `|L|` identical learners; eDKM shards the
//! uniquification *index lists* of saved tensors across the group so each
//! learner keeps only `1/|L|` of every list, paying an all-gather when the
//! backward pass needs the full buffer again. This crate provides
//!
//! * [`LearnerGroup`] — a copyable handle naming the group (`|L|` learners),
//! * [`ShardSpec`] — the balanced contiguous partition of an index list over
//!   the group (rank 0 first; uneven tails allowed, shards may be empty),
//! * collectives ([`LearnerGroup::all_gather`], [`LearnerGroup::broadcast`])
//!   whose traffic is charged to the simulated clock through
//!   [`edkm_tensor::runtime::record_all_gather`], and
//! * [`DataParallelTrainer`] — the synchronous data-parallel training loop
//!   whose losses are bit-exact with single-process training while the
//!   gradient all-reduce is charged to the clock.
//!
//! Devices are simulated (see `edkm-tensor`), so "remote" learners are plain
//! host memory that is *not* charged to this learner's pool — exactly the
//! accounting Table 2's per-learner memory column needs.

#![warn(missing_docs)]

pub mod group;
pub mod trainer;

pub use group::{LearnerGroup, ShardSpec};
pub use trainer::DataParallelTrainer;
