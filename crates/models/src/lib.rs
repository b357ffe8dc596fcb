//! Hardware and model specifications for the Chameleon reproduction.
//!
//! This crate is the single source of truth for the *sizes* everything else
//! computes with:
//!
//! * [`llm`] — base-LLM architectures ([`LlmSpec`]): Llama-7B/13B/30B/70B and
//!   OPT-13B, one of the other models §5.1 mentions, with parameter counts,
//!   layer/hidden geometry and KV-cache byte formulas.
//! * [`gpu`] — GPU platforms ([`GpuSpec`]): A40, and A100 at 80 GB and capped
//!   at 24 GB, with HBM bandwidth, peak FLOPs and PCIe link speed.
//! * [`adapter`] — LoRA adapters ([`AdapterSpec`], [`AdapterRank`]): the
//!   rank → bytes formula calibrated to the paper (§3.2: rank-32 on Llama-7B
//!   = 64 MB); [`AdapterStamps`] is the set of adapter ids the schedulers and
//!   the engine clear and refill on every dispatch.
//! * [`pool`] — adapter-pool generation ([`AdapterPool`]): `N_a` adapters,
//!   five rank groups, rank popularity × within-rank popularity
//!   distributions (uniform / power-law), exactly the §5.1 workload recipe.

pub mod adapter;
pub mod gpu;
pub mod llm;
pub mod pool;

pub use adapter::{AdapterId, AdapterRank, AdapterSpec, AdapterStamps};
pub use gpu::GpuSpec;
pub use llm::LlmSpec;
pub use pool::{AdapterPool, PoolConfig, PopularityDist};
