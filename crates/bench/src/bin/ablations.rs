//! CLI for the design-choice ablations (`chameleon_core::ablation`).
//!
//! ```text
//! cargo run -p chameleon-bench --release --bin ablations
//! ```

use chameleon_core::ablation;

fn main() {
    // High load exposes scheduling differences; medium load suffices for
    // cache-weight sensitivity.
    let seed = 42;
    ablation::print_table(
        "WRS polynomial degree (paper: degree-2 up to 10 % better)",
        &ablation::wrs_degree(10.5, 180.0, seed),
    );
    ablation::print_table(
        "Cache eviction weighting under pressure (400 adapters)",
        &ablation::frs_weights(9.0, 180.0, seed),
    );
    ablation::print_table(
        "Opportunistic bypass (§4.3.3)",
        &ablation::bypass_effect(12.0, 180.0, seed),
    );
    ablation::print_table(
        "Queue-count cap K_max (paper: 4)",
        &ablation::k_max_effect(10.5, 180.0, seed),
    );
}
