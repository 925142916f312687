//! Microbenchmarks of the substrates: e-graph saturation, pattern search,
//! the symbolic solver, and the dense-tensor runtime. These bound the
//! per-operator cost model behind Figures 3–4.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_egraph(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(20);

    // E-graph saturation over the block-matmul derivation.
    group.bench_function("egraph_block_matmul_saturation", |b| {
        use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};
        let rewrites = rewrites_of(&registry());
        let matcher = entangle_egraph::CompiledMatcher::compile(&rewrites);
        b.iter(|| {
            let mut analysis = TensorAnalysis::default();
            for n in ["A1", "A2", "B1", "B2"] {
                analysis.register_leaf(n, entangle_ir::Shape::of(&[8, 8]), entangle_ir::DType::F32);
            }
            let mut eg = entangle_egraph::EGraph::with_analysis(analysis);
            let l = eg.add_expr(
                &"(matmul (concat A1 A2 1) (concat B1 B2 0))"
                    .parse()
                    .unwrap(),
            );
            let r = eg.add_expr(&"(add (matmul A1 B1) (matmul A2 B2))".parse().unwrap());
            let mut runner = entangle_egraph::Runner::new(eg).with_iter_limit(8);
            runner.run(&rewrites, &matcher);
            assert_eq!(runner.egraph.find(l), runner.egraph.find(r));
        });
    });

    // Symbolic solver: chained inequalities.
    group.bench_function("symbolic_fourier_motzkin", |b| {
        use entangle_symbolic::{Rel, SymCtx};
        b.iter(|| {
            let mut ctx = SymCtx::new();
            let vars: Vec<_> = (0..8).map(|i| ctx.var(&format!("v{i}"))).collect();
            for w in vars.windows(2) {
                ctx.assume(w[0].clone(), Rel::Lt, w[1].clone());
            }
            assert_eq!(
                ctx.check(&vars[0], Rel::Lt, &vars[7]),
                entangle_symbolic::Truth::Proved
            );
        });
    });

    // Runtime: batched matmul on the bench model size.
    group.bench_function("runtime_matmul_32", |b| {
        use entangle_runtime::{eval_op, random_value};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let x = random_value(&mut rng, &[2, 16, 32]);
        let w = random_value(&mut rng, &[32, 32]);
        b.iter(|| eval_op(&entangle_ir::Op::Matmul, &[&x, &w]).unwrap());
    });

    group.finish();
}

criterion_group!(benches, bench_egraph);
criterion_main!(benches);
