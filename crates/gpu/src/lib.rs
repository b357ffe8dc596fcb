//! GPU substrate for the Chameleon reproduction.
//!
//! The paper's systems run on real A40/A100 GPUs; this crate replaces that
//! hardware with explicit, testable models:
//!
//! * [`memory`] — byte-accurate GPU memory accounting across the regions of
//!   Figure 6 (base weights, KV cache, adapters in use, adapter cache,
//!   activations).
//! * [`kv`] — a paged KV-cache allocator (block-granular, vLLM-style) that
//!   backs admission control and reproduces memory-pressure behaviour.
//! * [`pcie`] — the host→GPU DMA link as a serialising queue with byte
//!   accounting, reproducing the PCIe contention of Figure 4.
//! * [`cost`] — the analytic performance model (roofline prefill/decode,
//!   MBGMM LoRA overheads, tensor-parallel partitioning and sync) calibrated
//!   against the paper's own single-request measurements (Figures 2, 3, 5).

pub mod cost;
pub mod kv;
pub mod memory;
pub mod pcie;

pub use cost::CostModel;
pub use kv::{KvAllocator, KvSeq};
pub use memory::{MemoryPool, OutOfMemory, Region};
pub use pcie::PcieLink;
