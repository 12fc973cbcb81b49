//! # embx — EMBX-like shared-memory middleware for the simulated STi7200
//!
//! On the real STi7200, "OS21 tasks … communicate via a specific
//! middleware developed by STMicroelectronics — EMBX. This middleware
//! manages shared memory regions accessible by several or by all the
//! CPUs. These memory regions are called distributed objects and are
//! accessed by dedicated `EMBX_Send` and `EMBX_Receive` functions. The
//! `EMBX_Send` is an asynchronous operation corresponding to a write
//! operation on the distributed object. The `EMBX_Receive` is a
//! synchronous operation corresponding to a read operation on the
//! distributed object." (paper §5)
//!
//! This crate reimplements that model on [`mpsoc_sim`] + [`os21`]:
//!
//! * a [`Transport`] owns SDRAM buffer space and the per-CPU doorbell
//!   interrupt lines,
//! * a [`DistributedObject`] is a receiver-side buffer in shared SDRAM
//!   with one in-flight queue of [`Envelope`]s — raw bytes, or whatever
//!   typed message a runtime sends, queued as it is;
//!   [`DistributedObject::send`] is the asynchronous write (charge the
//!   copy, enqueue, raise the destination CPU's doorbell),
//!   [`DistributedObject::receive`] the synchronous read,
//! * transfer **costs** follow the machine cost model plus a software
//!   per-byte path, with a mechanistic knee at twice the object's buffer
//!   size: the object double-buffers 25 kB slots, so transfers ≤ 50 kB
//!   stream without stalling while larger ones pay a handshake per extra
//!   chunk — reproducing Figure 8's "linear for message sizes smaller
//!   than 50 kB; over 50 kB, the send function decreases its
//!   performance".

pub mod cost;
pub mod object;
pub mod transport;

pub use cost::EmbxCostConfig;
pub use object::{DistributedObject, Envelope};
pub use transport::Transport;
