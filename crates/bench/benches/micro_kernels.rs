//! Criterion microbenchmarks for the hot kernels behind the experiments:
//! dense GEMM, sparse message passing, neighbour variance, negative-edge
//! sampling and AUC computation — plus a scalar-vs-dispatched SIMD A/B
//! sweep written to `BENCH_simd.json` at the repository root. The sweep's
//! backward-pass GEMM shapes also time the reference formulation each must
//! equal bitwise (asserted on both ISAs before timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cell::Cell;
use std::io::Write as _;
use std::rc::Rc;

use vgod_autograd::Tape;
use vgod_gnn::{neighbor_variance_matrix, neighbor_variance_scores};
use vgod_graph::{community_graph, seeded_rng, CommunityGraphConfig};
use vgod_tensor::{simd, threading, AdamStep, Matrix};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[64usize, 256] {
        let a = Matrix::from_fn(n, n, |r, cc| ((r * 31 + cc * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(n, n, |r, cc| ((r * 7 + cc * 3) % 11) as f32 - 5.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let mut rng = seeded_rng(0);
    let g = community_graph(
        &CommunityGraphConfig::homogeneous(2000, 5, 8.0, 0.9),
        &mut rng,
    );
    let adj = g.mean_adjacency(false);
    let h = Matrix::from_fn(2000, 64, |r, cc| ((r + cc) % 7) as f32 * 0.3 - 1.0);
    c.bench_function("spmm_2000x64", |b| {
        b.iter(|| std::hint::black_box(adj.spmm(&h)));
    });
}

fn bench_neighbor_variance(c: &mut Criterion) {
    let mut rng = seeded_rng(1);
    let g = community_graph(
        &CommunityGraphConfig::homogeneous(2000, 5, 8.0, 0.9),
        &mut rng,
    );
    let adj = g.mean_adjacency(true);
    let h = Matrix::from_fn(2000, 64, |r, cc| ((r * 3 + cc) % 9) as f32 * 0.2 - 0.8);
    c.bench_function("neighbor_variance_matrix_2000x64", |b| {
        b.iter(|| std::hint::black_box(neighbor_variance_matrix(&h, &adj)));
    });
    let adj_rc = Rc::new(adj);
    c.bench_function("neighbor_variance_backward_2000x64", |b| {
        b.iter(|| {
            let tape = Tape::new();
            let hv = tape.constant(h.clone());
            let loss = neighbor_variance_scores(&hv, &adj_rc).mean_all();
            loss.backward();
        });
    });
}

fn bench_negative_sampling(c: &mut Criterion) {
    let mut rng = seeded_rng(2);
    let g = community_graph(
        &CommunityGraphConfig::homogeneous(2000, 5, 8.0, 0.9),
        &mut rng,
    );
    c.bench_function("negative_edges_2000", |b| {
        let mut rng = seeded_rng(3);
        b.iter(|| std::hint::black_box(g.negative_edges(&mut rng)));
    });
}

fn bench_auc(c: &mut Criterion) {
    let mut rng = seeded_rng(4);
    let scores: Vec<f32> = (0..20_000)
        .map(|_| rand::Rng::gen_range(&mut rng, 0.0..1.0))
        .collect();
    let labels: Vec<bool> = (0..20_000).map(|i| i % 17 == 0).collect();
    c.bench_function("auc_20000", |b| {
        b.iter(|| std::hint::black_box(vgod_eval::auc(&scores, &labels)));
    });
}

fn bench_gat_layer(c: &mut Criterion) {
    use vgod_autograd::ParamStore;
    use vgod_gnn::{GatLayer, GraphContext};
    let mut rng = seeded_rng(5);
    let g = {
        let mut g = community_graph(
            &CommunityGraphConfig::homogeneous(2000, 5, 8.0, 0.9),
            &mut rng,
        );
        g.set_attrs(Matrix::from_fn(2000, 64, |r, cc| {
            ((r + cc * 3) % 9) as f32 * 0.2 - 0.8
        }));
        g
    };
    let ctx = GraphContext::from_graph(&g);
    let mut store = ParamStore::new();
    let layer = GatLayer::new(&mut store, 64, 64, &mut rng);
    c.bench_function("gat_forward_2000x64", |b| {
        b.iter(|| {
            let tape = Tape::new();
            let x = tape.constant(g.attrs().clone());
            std::hint::black_box(layer.forward(&tape, &store, &x, &ctx).value())
        });
    });
    c.bench_function("gat_forward_backward_2000x64", |b| {
        b.iter(|| {
            let mut s = store.clone();
            let tape = Tape::new();
            let x = tape.constant(g.attrs().clone());
            let loss = layer.forward(&tape, &s, &x, &ctx).square().mean_all();
            loss.backward_into(&mut s);
        });
    });
}

fn bench_adam_step(c: &mut Criterion) {
    use vgod_autograd::ParamStore;
    use vgod_nn::{Adam, Optimizer};
    let mut store = ParamStore::new();
    for _ in 0..4 {
        store.insert(Matrix::from_fn(256, 256, |r, cc| {
            ((r * cc) % 7) as f32 * 0.1
        }));
    }
    // Seed gradients once; step() zeroes them, so re-seed per iteration.
    c.bench_function("adam_step_4x256x256", |b| {
        let mut opt = Adam::new(1e-3);
        b.iter(|| {
            for (_, p) in store.iter_mut() {
                p.grad.map_inplace(|_| 0.01);
            }
            opt.step(&mut store);
        });
    });
}

fn bench_vbm_epoch(c: &mut Criterion) {
    use vgod::{Vbm, VbmConfig};
    use vgod_eval::OutlierDetector;
    let mut rng = seeded_rng(6);
    let mut g = community_graph(
        &CommunityGraphConfig::homogeneous(2000, 5, 8.0, 0.9),
        &mut rng,
    );
    g.set_attrs(Matrix::from_fn(2000, 64, |r, cc| {
        ((r * 5 + cc) % 11) as f32 * 0.15 - 0.7
    }));
    c.bench_function("vbm_train_one_epoch_2000x64", |b| {
        b.iter(|| {
            let mut vbm = Vbm::new(VbmConfig {
                hidden_dim: 64,
                epochs: 1,
                lr: 0.005,
                self_loops: true,
                seed: 0,
            });
            OutlierDetector::fit(&mut vbm, &g);
        });
    });
}

struct SimdResult {
    name: &'static str,
    scalar_ns: f64,
    simd_ns: f64,
    /// Dispatched time of the reference formulation, for the backward
    /// GEMM shapes.
    reference_ns: Option<f64>,
}

/// Time `routine` with the scalar kernels forced and again dispatched.
/// Both legs run single-threaded so the pool cannot blur the ISA delta.
fn simd_ab<O>(c: &mut Criterion, name: &'static str, mut routine: impl FnMut() -> O) -> SimdResult {
    let median = Cell::new(0.0f64);
    simd::force_scalar(true);
    c.bench_function(&format!("{name}/scalar"), |b| {
        b.iter(&mut routine);
        median.set(b.median_ns());
    });
    let scalar_ns = median.get();
    simd::force_scalar(false);
    c.bench_function(&format!("{name}/simd"), |b| {
        b.iter(&mut routine);
        median.set(b.median_ns());
    });
    SimdResult {
        name,
        scalar_ns,
        simd_ns: median.get(),
        reference_ns: None,
    }
}

/// [`simd_ab`] for a backward-pass GEMM shape: first assert the kernel's
/// output equals `reference`'s bit for bit on both ISAs, then time both
/// legs of the kernel and the dispatched reference.
fn backward_ab(
    c: &mut Criterion,
    name: &'static str,
    mut kernel: impl FnMut() -> Matrix,
    mut reference: impl FnMut() -> Matrix,
) -> SimdResult {
    for scalar in [true, false] {
        simd::force_scalar(scalar);
        assert_eq!(
            kernel().as_slice(),
            reference().as_slice(),
            "{name}: kernel differs from its reference (scalar forced: {scalar})"
        );
    }
    let median = Cell::new(0.0f64);
    c.bench_function(&format!("{name}/reference"), |b| {
        b.iter(&mut reference);
        median.set(b.median_ns());
    });
    let mut result = simd_ab(c, name, kernel);
    result.reference_ns = Some(median.get());
    result
}

/// The k-sequential multiply-then-add chain per row: the accumulation
/// order every narrow (`n < 8`) product keeps, here for `n == 1`.
fn matvec_chain(a: &Matrix, x: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), 1, |i, _| {
        let mut acc = 0.0f32;
        for (kk, &v) in a.row(i).iter().enumerate() {
            acc += v * x.as_slice()[kk];
        }
        acc
    })
}

/// Scalar-vs-dispatched A/B over every dispatched kernel family, at the
/// same paper scale as `kernels.rs` (n = 10k, d = 64).
fn bench_simd_ab(c: &mut Criterion) {
    const N: usize = 10_000;
    const D: usize = 64;
    let mut rng = seeded_rng(0);
    let g = community_graph(
        &CommunityGraphConfig::homogeneous(N, 10, 8.0, 0.9),
        &mut rng,
    );
    let adj = g.mean_adjacency(true);
    let h = Matrix::from_fn(N, D, |r, cc| ((r * 5 + cc * 3) % 13) as f32 * 0.15 - 0.9);
    let w = Matrix::from_fn(D, D, |r, cc| ((r * 7 + cc) % 11) as f32 * 0.1 - 0.5);
    let h2 = Matrix::from_fn(N, D, |r, cc| ((r + cc * 7) % 9) as f32 * 0.2 - 0.8);
    // Backward-pass operands: the 128-wide input of a first layer, the GAT
    // attention gradient column and attention vector.
    let x128 = Matrix::from_fn(N, 2 * D, |r, cc| ((r * 3 + cc * 5) % 17) as f32 * 0.1 - 0.8);
    let g1 = Matrix::from_fn(N, 1, |r, _| (r % 23) as f32 * 0.05 - 0.5);
    let a1 = Matrix::from_fn(D, 1, |r, _| (r % 7) as f32 * 0.2 - 0.6);
    // A wide-output AᵀB: the `Gᵀ·A` of a `matmul_nt` backward whose output
    // width is an attribute count (AnomalyDAE's structure decoder).
    let x500 = Matrix::from_fn(N, 500, |r, cc| ((r * 11 + cc * 3) % 19) as f32 * 0.1 - 0.9);

    threading::force_sequential(true);
    let mut results = Vec::new();
    results.push(simd_ab(c, "matmul_10000x64x64", || {
        std::hint::black_box(h.matmul(&w))
    }));
    // dW of a first layer: n×128ᵀ · n×64.
    results.push(backward_ab(
        c,
        "matmul_tn_10000x128x64",
        || std::hint::black_box(x128.matmul_tn(&h2)),
        || x128.transpose().matmul(&h2),
    ));
    // dW of a hidden layer: n×64ᵀ · n×64.
    results.push(backward_ab(
        c,
        "matmul_tn_10000x64",
        || std::hint::black_box(h.matmul_tn(&h2)),
        || h.transpose().matmul(&h2),
    ));
    // Wide output: n×500ᵀ · n×64 (a 500×64 output, past L1).
    results.push(backward_ab(
        c,
        "matmul_tn_10000x500x64",
        || std::hint::black_box(x500.matmul_tn(&h2)),
        || x500.transpose().matmul(&h2),
    ));
    // GAT attention-vector gradient: n×64ᵀ · n×1.
    results.push(backward_ab(
        c,
        "matmul_tn_10000x64x1",
        || std::hint::black_box(h.matmul_tn(&g1)),
        || h.transpose().matmul(&g1),
    ));
    // GAT attention logits: n×64 · 64×1.
    results.push(backward_ab(
        c,
        "matmul_10000x64x1",
        || std::hint::black_box(h.matmul(&a1)),
        || matvec_chain(&h, &a1),
    ));
    // GAT feature gradient from the logits: n×1 · (64×1)ᵀ.
    results.push(backward_ab(
        c,
        "matmul_nt_10000x1x64",
        || std::hint::black_box(g1.matmul_nt(&a1)),
        || g1.matmul(&a1.transpose()),
    ));
    results.push(simd_ab(c, "matmul_nt_10000x64", || {
        std::hint::black_box(h.matmul_nt(&h2))
    }));
    results.push(simd_ab(c, "spmm_10000x64", || {
        std::hint::black_box(adj.spmm(&h))
    }));
    results.push(simd_ab(c, "spmm_t_10000x64", || {
        std::hint::black_box(adj.spmm_t(&h))
    }));
    results.push(simd_ab(c, "hadamard_10000x64", || {
        std::hint::black_box(h.mul(&h2))
    }));
    results.push(simd_ab(c, "axpy_10000x64", || {
        let mut out = h.clone();
        out.add_scaled(0.3, &h2);
        std::hint::black_box(out)
    }));
    results.push(simd_ab(c, "row_sums_10000x64", || {
        std::hint::black_box(h.row_sums())
    }));
    results.push(simd_ab(c, "frobenius_10000x64", || {
        std::hint::black_box(h.frobenius_norm())
    }));
    let step = AdamStep {
        lr: 0.01,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        bias1: 0.1,
        bias2: 0.001,
    };
    // The fused-Adam baseline is the pre-dispatch optimizer body: the
    // per-element `zip_apply3` closure with its three divisions, exactly as
    // `Adam::step` ran before the kernel layer. The dispatched leg is the
    // fused kernel. Buffers are hoisted out of the routines so the A/B times
    // the pass, not a clone and two zero-fills; state evolving across
    // iterations is fine — the update keeps every buffer finite.
    let median = Cell::new(0.0f64);
    simd::force_scalar(true);
    let mut value = h.clone();
    let mut m = Matrix::zeros(N, D);
    let mut v = Matrix::zeros(N, D);
    c.bench_function("fused_adam_pass_10000x64/scalar", |b| {
        b.iter(|| {
            value.zip_apply3(&mut m, &mut v, &h2, |pv, mv, vv, gv| {
                *mv = step.beta1 * *mv + (1.0 - step.beta1) * gv;
                *vv = step.beta2 * *vv + (1.0 - step.beta2) * gv * gv;
                let m_hat = *mv / step.bias1;
                let v_hat = *vv / step.bias2;
                *pv -= step.lr * m_hat / (v_hat.sqrt() + step.eps);
            });
            std::hint::black_box(value.as_slice()[0])
        });
        median.set(b.median_ns());
    });
    let scalar_ns = median.get();
    simd::force_scalar(false);
    let mut value = h.clone();
    let mut m = Matrix::zeros(N, D);
    let mut v = Matrix::zeros(N, D);
    c.bench_function("fused_adam_pass_10000x64/simd", |b| {
        b.iter(|| {
            value.fused_adam_step(&mut m, &mut v, &h2, &step);
            std::hint::black_box(value.as_slice()[0])
        });
        median.set(b.median_ns());
    });
    results.push(SimdResult {
        name: "fused_adam_pass_10000x64",
        scalar_ns,
        simd_ns: median.get(),
        reference_ns: None,
    });
    threading::force_sequential(false);

    write_simd_json(&results, N, D);
}

/// Hand-rolled JSON (the workspace has no serde) written to the repo root.
fn write_simd_json(results: &[SimdResult], n: usize, d: usize) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"simd\",\n");
    out.push_str(&format!("  \"shape\": {{\"n\": {n}, \"d\": {d}}},\n"));
    out.push_str(&format!(
        "  \"isa\": \"{}\",\n",
        simd::detected_isa().name()
    ));
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(
        "  \"note\": \"single-threaded; reference_ns times the formulation a backward GEMM \
         must equal bit for bit (transpose-then-matmul for AᵀB, matmul against the transposed \
         right operand for the k=1 outer product, the one-chain-per-row loop for n=1)\",\n",
    );
    out.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        let speedup = if r.simd_ns > 0.0 {
            r.scalar_ns / r.simd_ns
        } else {
            1.0
        };
        let reference = match r.reference_ns {
            Some(ns) => format!(
                ", \"reference_ns\": {ns:.0}, \"vs_reference\": {:.3}",
                ns / r.simd_ns.max(1.0)
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ns\": {:.0}, \"simd_ns\": {:.0}, \"speedup\": {:.3}{}}}{}\n",
            r.name,
            r.scalar_ns,
            r.simd_ns,
            speedup,
            reference,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simd.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_simd.json");
    f.write_all(out.as_bytes()).expect("write BENCH_simd.json");
    println!("wrote {path} (isa={})", simd::detected_isa().name());
}

criterion_group!(
    benches,
    bench_matmul,
    bench_spmm,
    bench_neighbor_variance,
    bench_negative_sampling,
    bench_auc,
    bench_gat_layer,
    bench_adam_step,
    bench_vbm_epoch,
    bench_simd_ab
);
criterion_main!(benches);
