//! Property-style tests for the constraint compiler: random programs and
//! random gadget circuits must always produce constraint systems whose
//! solver-generated witnesses satisfy them, whose transforms preserve
//! satisfiability, and whose outputs match direct evaluation. Driven by
//! a small in-tree deterministic generator (the build must work offline,
//! so no external proptest dependency).

use zaatar_cc::lang::{compile, CompileOptions};
use zaatar_cc::numeric::decode_i64;
use zaatar_cc::{ginger_stats, ginger_to_quad, linearize_io, Builder};
use zaatar_field::{Field, F61};

/// Deterministic splitmix64 generator standing in for proptest.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % ((hi - lo) as u64)) as i64
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A small random expression AST over two inputs `a`, `b` and constants.
#[derive(Clone, Debug)]
enum E {
    A,
    B,
    Const(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Lt(Box<E>, Box<E>),
    Eq(Box<E>, Box<E>),
}

impl E {
    fn to_zsl(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::Const(c) => {
                if *c < 0 {
                    format!("(0 - {})", -(*c as i64))
                } else {
                    format!("{c}")
                }
            }
            E::Add(l, r) => format!("({} + {})", l.to_zsl(), r.to_zsl()),
            E::Sub(l, r) => format!("({} - {})", l.to_zsl(), r.to_zsl()),
            E::Mul(l, r) => format!("({} * {})", l.to_zsl(), r.to_zsl()),
            E::Lt(l, r) => format!("({} < {})", l.to_zsl(), r.to_zsl()),
            E::Eq(l, r) => format!("({} == {})", l.to_zsl(), r.to_zsl()),
        }
    }

    /// Direct evaluation over i128 (wide enough for depth-3 products of
    /// 8-bit values).
    fn eval(&self, a: i128, b: i128) -> i128 {
        match self {
            E::A => a,
            E::B => b,
            E::Const(c) => *c as i128,
            E::Add(l, r) => l.eval(a, b) + r.eval(a, b),
            E::Sub(l, r) => l.eval(a, b) - r.eval(a, b),
            E::Mul(l, r) => l.eval(a, b) * r.eval(a, b),
            E::Lt(l, r) => i128::from(l.eval(a, b) < r.eval(a, b)),
            E::Eq(l, r) => i128::from(l.eval(a, b) == r.eval(a, b)),
        }
    }

    /// Magnitude bound used to keep comparisons inside the gadget width.
    fn bound(&self) -> i128 {
        match self {
            E::A | E::B => 127,
            E::Const(_) => 127,
            E::Add(l, r) | E::Sub(l, r) => l.bound() + r.bound(),
            E::Mul(l, r) => l.bound() * r.bound(),
            E::Lt(_, _) | E::Eq(_, _) => 1,
        }
    }
}

/// A random expression of bounded depth.
fn arb_expr(g: &mut Gen, depth: u32) -> E {
    if depth == 0 || g.next_u64().is_multiple_of(4) {
        return match g.next_u64() % 3 {
            0 => E::A,
            1 => E::B,
            _ => E::Const(g.next_u64() as i8),
        };
    }
    let l = Box::new(arb_expr(g, depth - 1));
    let r = Box::new(arb_expr(g, depth - 1));
    match g.next_u64() % 5 {
        0 => E::Add(l, r),
        1 => E::Sub(l, r),
        2 => E::Mul(l, r),
        3 => E::Lt(l, r),
        _ => E::Eq(l, r),
    }
}

/// A random expression whose magnitude bound keeps comparisons inside
/// the gadget width.
fn arb_bounded_expr(g: &mut Gen) -> E {
    loop {
        let e = arb_expr(g, 3);
        if e.bound() < (1 << 40) {
            return e;
        }
    }
}

/// Random expressions compile, solve, satisfy their constraints, and
/// equal direct evaluation — in both compiler modes.
#[test]
fn compiled_expressions_match_direct_evaluation() {
    let mut g = Gen::new(1);
    for _ in 0..48 {
        let e = arb_bounded_expr(&mut g);
        let a = g.range_i64(-100, 100);
        let b = g.range_i64(-100, 100);
        let src = format!("input a; input b; output y; y = {};", e.to_zsl());
        let expect = e.eval(a as i128, b as i128);
        for materialize in [true, false] {
            let opts = CompileOptions {
                width: 44,
                materialize,
                ..CompileOptions::default()
            };
            let compiled = compile::<F61>(&src, &opts).expect("compiles");
            let ins = vec![F61::from_i64(a), F61::from_i64(b)];
            let asg = compiled.solver.solve(&ins).expect("solves");
            assert!(compiled.ginger.is_satisfied(&asg));
            let y = decode_i64(asg.extract(compiled.solver.outputs())[0]).expect("small");
            assert_eq!(y as i128, expect, "{src}");
        }
    }
}

/// The §4 transform preserves (un)satisfiability on random circuits.
#[test]
fn transform_preserves_satisfiability() {
    let mut g = Gen::new(2);
    for _ in 0..48 {
        let e = arb_bounded_expr(&mut g);
        let a = g.range_i64(-50, 50);
        let b = g.range_i64(-50, 50);
        let corrupt = g.bool();
        let src = format!("input a; input b; output y; y = {};", e.to_zsl());
        let opts = CompileOptions {
            width: 44,
            materialize: true,
            ..CompileOptions::default()
        };
        let compiled = compile::<F61>(&src, &opts).expect("compiles");
        let ins = vec![F61::from_i64(a), F61::from_i64(b)];
        let mut asg = compiled.solver.solve(&ins).expect("solves");
        if corrupt {
            let out = compiled.solver.outputs()[0];
            asg.set(out, asg.get(out) + F61::ONE);
        }
        let sat_g = compiled.ginger.is_satisfied(&asg);
        let t = ginger_to_quad(&compiled.ginger);
        assert_eq!(t.system.is_satisfied(&t.extend_assignment(&asg)), sat_g);
        let lin = linearize_io(&compiled.ginger);
        assert_eq!(lin.system.is_satisfied(&lin.extend_assignment(&asg)), sat_g);
    }
}

/// Fig. 3's size relations hold for arbitrary compiled circuits, with
/// `K₂′` (the product variables introduced) in place of `K₂`, and the two
/// systems have the same solutions.
#[test]
fn size_relations_hold() {
    let mut g = Gen::new(3);
    for _ in 0..48 {
        let e = arb_expr(&mut g, 3);
        let src = format!("input a; input b; output y; y = {};", e.to_zsl());
        let opts = CompileOptions {
            width: 44,
            materialize: true,
            ..CompileOptions::default()
        };
        let compiled = compile::<F61>(&src, &opts).expect("compiles");
        let stats = ginger_stats(&compiled.ginger);
        let t = ginger_to_quad(&compiled.ginger);
        let z = zaatar_cc::quad_stats(&t.system);
        assert_eq!(z.num_unbound, stats.num_unbound + t.k2());
        assert_eq!(z.num_constraints, stats.num_constraints + t.k2());
        assert!(t.k2() <= stats.k2_distinct, "{src}");
        // Satisfiable ⇔ satisfiable; a one-variable flip is refused by both.
        let ins = vec![F61::from_i64(g.range_i64(-9, 9)), F61::from_i64(g.range_i64(-9, 9))];
        let Ok(mut asg) = compiled.solver.solve(&ins) else { continue };
        let sat = compiled.ginger.is_satisfied(&asg);
        assert_eq!(t.system.is_satisfied(&t.extend_assignment(&asg)), sat, "{src}");
        if !sat {
            continue; // a comparison wider than the gadget's contract
        }
        let out = compiled.solver.outputs()[0];
        asg.set(out, asg.get(out) + F61::ONE);
        assert!(!compiled.ginger.is_satisfied(&asg), "{src}");
        assert!(!t.system.is_satisfied(&t.extend_assignment(&asg)), "{src}");
    }
}

/// The comparison gadget agrees with native `<` across its full
/// contracted range.
#[test]
fn less_than_gadget_is_correct() {
    let mut g = Gen::new(4);
    for _ in 0..64 {
        let a = g.range_i64(-(1 << 20), 1 << 20);
        let b = g.range_i64(-(1 << 20), 1 << 20);
        let mut builder = Builder::<F61>::new();
        let x = builder.alloc_input();
        let y = builder.alloc_input();
        let lt = builder.less_than(&x, &y, 22);
        builder.bind_output(&lt);
        let (sys, solver) = builder.finish();
        let asg = solver.solve(&[F61::from_i64(a), F61::from_i64(b)]).unwrap();
        assert!(sys.is_satisfied(&asg));
        let got = asg.extract(solver.outputs())[0];
        assert_eq!(got, F61::from_u64(u64::from(a < b)));
    }
}

/// `is_eq` / `is_nonzero` agree with native equality.
#[test]
fn equality_gadget_is_correct() {
    let mut g = Gen::new(5);
    for case in 0..64 {
        let a = g.next_u64() as i32;
        // Mix in genuinely equal pairs (random i32s almost never collide).
        let b = if case % 4 == 0 { a } else { g.next_u64() as i32 };
        let mut builder = Builder::<F61>::new();
        let x = builder.alloc_input();
        let y = builder.alloc_input();
        let eq = builder.is_eq(&x, &y);
        builder.bind_output(&eq);
        let (sys, solver) = builder.finish();
        let asg = solver
            .solve(&[F61::from_i64(a as i64), F61::from_i64(b as i64)])
            .unwrap();
        assert!(sys.is_satisfied(&asg));
        assert_eq!(
            asg.extract(solver.outputs())[0],
            F61::from_u64(u64::from(a == b))
        );
    }
}

/// Bit decomposition round-trips arbitrary values in range.
#[test]
fn bit_decompose_recomposes() {
    let mut g = Gen::new(6);
    for _ in 0..48 {
        let v = g.next_u64() % (1 << 48);
        let mut builder = Builder::<F61>::new();
        let x = builder.alloc_input();
        let bits = builder.bit_decompose(&x, 48);
        let (sys, solver) = builder.finish();
        let asg = solver.solve(&[F61::from_u64(v)]).unwrap();
        assert!(sys.is_satisfied(&asg));
        let mut recomposed = 0u64;
        for (i, bit) in bits.iter().enumerate() {
            let val = bit.eval(&asg);
            assert!(val == F61::ZERO || val == F61::ONE);
            if val == F61::ONE {
                recomposed |= 1 << i;
            }
        }
        assert_eq!(recomposed, v);
    }
}
