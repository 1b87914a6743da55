//! Simulator-level consistency: the relative performance claims the paper
//! makes must hold across the sweep ranges the figures plot, and the
//! machine model itself must behave monotonically. The same claims at the
//! paper's own shapes are asserted by the `ft_bench::reproduce` sections
//! that regenerate `EXPERIMENTS.md`.

use ft_sim::{GpuConfig, Kernel, Region, SimMachine};
use ft_workloads::{attention, b2b, bigbird, dilated, grid, lstm, Strategy};

#[test]
fn figure2_shape_eager_scales_with_product_wavefront_with_sum() {
    let times: Vec<(f64, f64)> = [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&depth| {
            let s = lstm::LstmShape {
                batch: 64,
                hidden: 64,
                depth,
                seq: 32,
            };
            (
                lstm::simulate(s, Strategy::Eager).ms,
                lstm::simulate(s, Strategy::FractalTensor).ms,
            )
        })
        .collect();
    // Eager time is ~linear in depth (launch-bound); FT grows sub-linearly.
    let eager_ratio = times.last().unwrap().0 / times.first().unwrap().0;
    let ft_ratio = times.last().unwrap().1 / times.first().unwrap().1;
    assert!(eager_ratio > 20.0, "eager ratio {eager_ratio}");
    assert!(ft_ratio < 4.0, "ft ratio {ft_ratio}");
    // And everything is monotone in depth.
    for w in times.windows(2) {
        assert!(w[1].0 >= w[0].0);
        assert!(w[1].1 >= w[0].1);
    }
}

#[test]
fn figure7_fractaltensor_wins_every_workload() {
    // LSTM.
    let s = lstm::LstmShape {
        batch: 64,
        hidden: 64,
        depth: 8,
        seq: 16,
    };
    let ft = lstm::simulate(s, Strategy::FractalTensor).ms;
    for st in [Strategy::Eager, Strategy::FusedOp, Strategy::BlockTile] {
        assert!(ft < lstm::simulate(s, st).ms, "lstm vs {st:?}");
    }
    // Dilated.
    let s = dilated::DilatedShape {
        batch: 64,
        hidden: 64,
        depth: 4,
        seq: 32,
    };
    let ft = dilated::simulate(s, Strategy::FractalTensor).unwrap().ms;
    for st in [Strategy::Eager, Strategy::FusedOp, Strategy::BlockTile] {
        assert!(
            ft < dilated::simulate(s, st).unwrap().ms,
            "dilated vs {st:?}"
        );
    }
    // Grid.
    let s = grid::GridShape {
        batch: 64,
        hidden: 64,
        depth: 4,
        rows: 4,
        cols: 4,
    };
    let ft = grid::simulate(s, Strategy::FractalTensor).unwrap().ms;
    for st in [Strategy::Eager, Strategy::FusedOp, Strategy::BlockTile] {
        assert!(ft < grid::simulate(s, st).unwrap().ms, "grid vs {st:?}");
    }
    // B2B GEMM.
    let s = b2b::B2bShape::paper();
    let ft = b2b::simulate(s, Strategy::FractalTensor).unwrap().ms;
    assert!(ft < b2b::simulate(s, Strategy::Eager).unwrap().ms);
    // Attention: FT at least matches the handcrafted FA-2 kernel.
    let s = attention::AttnShape {
        batch: 4,
        heads: 4,
        q_blocks: 8,
        kv_blocks: 8,
        block: 32,
        dh: 64,
    };
    let ft = attention::simulate(s, Strategy::FractalTensor).unwrap().ms;
    assert!(ft <= attention::simulate(s, Strategy::Handcrafted).unwrap().ms * 1.02);
    // BigBird.
    let s = bigbird::BigBirdShape {
        heads: 8,
        blocks: 16,
        block: 16,
        dh: 64,
    };
    let ft = bigbird::simulate(s, Strategy::FractalTensor).unwrap().ms;
    for st in [Strategy::Eager, Strategy::FusedOp, Strategy::BlockTile] {
        assert!(
            ft < bigbird::simulate(s, st).unwrap().ms,
            "bigbird vs {st:?}"
        );
    }
}

#[test]
fn machine_time_is_additive_and_deterministic() {
    let run = || {
        let mut m = SimMachine::new(GpuConfig::a100());
        let b = m.alloc(1 << 22);
        for _ in 0..50 {
            m.launch(&Kernel {
                name: "k".into(),
                flops: 1 << 20,
                tensor_cores: false,
                reads: vec![Region::whole(b)],
                writes: vec![],
                l1_extra_bytes: 0,
                ctas: 108,
                smem_per_cta: 0,
            });
        }
        (m.elapsed_ms(), m.counters())
    };
    let (t1, c1) = run();
    let (t2, c2) = run();
    assert_eq!(t1, t2, "simulation must be deterministic");
    assert_eq!(c1, c2);
}

#[test]
fn larger_batch_never_reduces_simulated_time() {
    for (a, b) in [(32usize, 64usize), (64, 128), (128, 256)] {
        let mk = |batch| lstm::LstmShape {
            batch,
            hidden: 64,
            depth: 4,
            seq: 8,
        };
        let ta = lstm::simulate(mk(a), Strategy::FractalTensor).ms;
        let tb = lstm::simulate(mk(b), Strategy::FractalTensor).ms;
        assert!(tb >= ta, "batch {a}->{b}: {ta} -> {tb}");
    }
}
