//! Reproduces the §5.1 microbenchmark table: per-operation costs
//! `e, d, h, f_lazy, f, f_div, c` for the 128-bit and 220-bit fields, then
//! DESIGN §3's domain substitution (zero-pinned interpolation on 1..n vs a subgroup).
//!
//! ```text
//! cargo run --release -p zaatar-bench --bin microbench
//! ```

use zaatar_bench::cost::{measure_micro_params, MicroParams};
use zaatar_bench::{fmt_secs, print_table};
use zaatar_crypto::ChaChaPrg;
use zaatar_field::{F128, F220};
use zaatar_poly::{ArithDomain, EvalDomain, Radix2Domain};

fn row(label: &str, m: &MicroParams) -> Vec<String> {
    vec![
        label.to_string(),
        fmt_secs(m.e),
        fmt_secs(m.d),
        fmt_secs(m.h),
        fmt_secs(m.f_lazy),
        fmt_secs(m.f),
        fmt_secs(m.f_div),
        fmt_secs(m.c),
    ]
}

fn main() {
    println!("== Section 5.1 microbenchmarks (1000-op averages) ==\n");
    let m128 = measure_micro_params::<F128>();
    let m220 = measure_micro_params::<F220>();
    print_table(
        &["field size", "e", "d", "h", "f_lazy", "f", "f_div", "c"],
        &[
            row("128 bits (measured)", &m128),
            row("220 bits (measured)", &m220),
            row("128 bits (paper)", &MicroParams::paper_128()),
            row("220 bits (paper)", &MicroParams::paper_220()),
        ],
    );
    println!(
        "\nShape checks: e/f = {:.0} (paper: {:.0}), d/e = {:.1} (paper: {:.1}), f_div/f = {:.0} (paper: {:.0})",
        m128.e / m128.f,
        MicroParams::paper_128().e / MicroParams::paper_128().f,
        m128.d / m128.e,
        MicroParams::paper_128().d / MicroParams::paper_128().e,
        m128.f_div / m128.f,
        MicroParams::paper_128().f_div / MicroParams::paper_128().f,
    );

    let n = 256;
    println!("\n== Domain substitution (zero-pinned interpolation, n = {n}, F128) ==\n");
    let evals: Vec<F128> = ChaChaPrg::from_u64_seed(9).field_vec(n);
    let secs = |d: &dyn Fn() -> zaatar_poly::DensePoly<F128>| {
        let start = std::time::Instant::now();
        (0..20).for_each(|_| drop(std::hint::black_box(d())));
        start.elapsed().as_secs_f64() / 20.0
    };
    let (arith, radix2) = (ArithDomain::new(n), Radix2Domain::new(n));
    let arith = secs(&|| arith.interpolate_zero_pinned(&evals));
    let radix2 = secs(&|| radix2.interpolate_zero_pinned(&evals));
    let domain = |name: &str, s: f64| vec![name.into(), fmt_secs(s), format!("{:.0}x", s / radix2)];
    let rows = [domain("1..n (paper)", arith), domain("radix-2 subgroup", radix2)];
    print_table(&["domain", "interpolate", "vs subgroup"], &rows);
}
