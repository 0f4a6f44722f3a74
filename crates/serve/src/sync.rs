//! Sync primitives behind a loom-switchable facade.
//!
//! The concurrency core of this crate ([`crate::queue`] and the oneshot
//! rendezvous) is model-checked: built with `RUSTFLAGS="--cfg loom"`,
//! these aliases resolve to the vendored `loom` model checker's types and
//! the loom suites under `tests/` explore every interleaving (see
//! DESIGN.md §11). Normal builds resolve to `std` with zero indirection.
//!
//! `Instant` is part of the facade because timed waits are modeled too:
//! under loom it is a deterministic virtual clock advanced by timed-wait
//! timeouts, so deadline rechecks behave identically in both worlds.

#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(loom)]
pub(crate) use loom::time::Instant;

#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub(crate) use std::time::Instant;
