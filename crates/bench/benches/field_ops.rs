//! Benches for the §5.1 field/crypto primitive operations, on the
//! in-tree harness (`zaatar_bench::harness`).

use std::hint::black_box;
use zaatar_bench::harness::BenchGroup;
use zaatar_crypto::{ChaChaPrg, ElGamal, KeyPair};
use zaatar_field::{Field, F128, F220, F61};

fn field_mul() {
    let mut group = BenchGroup::new("field_mul");
    let mut prg = ChaChaPrg::from_u64_seed(1);
    let a128: F128 = prg.field_element();
    let b128: F128 = prg.field_element();
    group.bench("f128", || black_box(a128) * black_box(b128));
    let a220: F220 = prg.field_element();
    let b220: F220 = prg.field_element();
    group.bench("f220", || black_box(a220) * black_box(b220));
    let a61: F61 = prg.field_element();
    let b61: F61 = prg.field_element();
    group.bench("f61", || black_box(a61) * black_box(b61));
}

/// The deferred-reduction inner product at a proof-vector-sized length,
/// per term: the number `cost::measure_micro_params` reports as `f_lazy`,
/// next to `field_mul`'s `f`.
fn field_dot() {
    const LEN: usize = 4096;
    let mut group = BenchGroup::new("field_dot");
    let mut prg = ChaChaPrg::from_u64_seed(5);
    let (a128, b128): (Vec<F128>, Vec<F128>) = (prg.field_vec(LEN), prg.field_vec(LEN));
    group.bench_items("f128_4096", LEN as u64, || {
        F128::dot(black_box(&a128), black_box(&b128))
    });
    let (a220, b220): (Vec<F220>, Vec<F220>) = (prg.field_vec(LEN), prg.field_vec(LEN));
    group.bench_items("f220_4096", LEN as u64, || {
        F220::dot(black_box(&a220), black_box(&b220))
    });
}

fn field_inverse() {
    let mut group = BenchGroup::new("field_inverse");
    let mut prg = ChaChaPrg::from_u64_seed(2);
    let a: F128 = prg.field_element();
    group.bench("f128", || black_box(a).inverse());
}

fn prg_element() {
    let mut group = BenchGroup::new("prg_field_element");
    let mut prg = ChaChaPrg::from_u64_seed(3);
    group.bench("f128", || black_box(prg.field_element::<F128>()));
}

fn elgamal_ops() {
    let mut group = BenchGroup::new("elgamal");
    let mut prg = ChaChaPrg::from_u64_seed(4);
    // The 256-bit test group keeps the bench quick; the 1024-bit
    // production group is exercised by the figure binaries.
    let kp = KeyPair::<F61>::generate(&mut prg);
    let m: F61 = prg.field_element();
    group.bench("encrypt_f61_group", || {
        ElGamal::<F61>::encrypt(kp.public(), black_box(m), &mut prg)
    });
    let ct = ElGamal::<F61>::encrypt(kp.public(), m, &mut prg);
    group.bench("decrypt_f61_group", || {
        ElGamal::<F61>::decrypt_to_group(&kp, black_box(&ct))
    });
    let s: F61 = prg.field_element();
    group.bench("homomorphic_scale_add", || {
        let t = ElGamal::<F61>::scale(black_box(&ct), black_box(s));
        ElGamal::<F61>::add(&t, &ct)
    });
}

fn main() {
    field_mul();
    field_dot();
    field_inverse();
    prg_element();
    elgamal_ops();
}
