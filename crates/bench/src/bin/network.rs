//! Network-cost table (\[53, Apdx A.3\] / §6's remark that reuse "slashes
//! network costs"): bytes on the wire per batch for each benchmark, with
//! and without the seed-derived-query optimization.

use zaatar_apps::build;
use zaatar_bench::cost::zaatar_network_costs;
use zaatar_bench::{print_table, Scale};
use zaatar_core::pcp::{PcpParams, ZaatarPcp};
use zaatar_core::qap::Qap;
use zaatar_crypto::HasGroup;
use zaatar_field::F128;

fn fmt_bytes(b: u64) -> String {
    if b < 10_000 {
        format!("{b} B")
    } else if b < 10_000_000 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else if b < 10_000_000_000 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1} GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

fn main() {
    let scale = Scale::from_env();
    let beta = 100;
    let group_bits = 8 * F128::group().elem_bytes();
    println!("== Network costs per batch (beta = {beta}, {group_bits}-bit group) ==\n");
    let mut rows = Vec::new();
    for app in scale.suite() {
        let art = build::<F128>(&app);
        let pcp = ZaatarPcp::new(Qap::new(&art.quad.system), PcpParams::default());
        let full = zaatar_network_costs(&pcp, beta, false);
        let seeded = zaatar_network_costs(&pcp, beta, true);
        rows.push(vec![
            app.name().to_string(),
            app.params(),
            fmt_bytes(full.v_to_p),
            fmt_bytes(seeded.v_to_p),
            format!("{:.0}x", full.v_to_p as f64 / seeded.v_to_p as f64),
            fmt_bytes(seeded.p_to_v),
        ]);
    }
    print_table(
        &[
            "computation",
            "params",
            "V->P (full queries)",
            "V->P (seeded)",
            "savings",
            "P->V (batch)",
        ],
        &rows,
    );
    println!(
        "\nSeed derivation replaces the O(mu * |u|) query payload with 32 bytes;\n\
         Enc(r) and the consistency queries t remain explicit (they depend on\n\
         verifier secrets)."
    );
}
