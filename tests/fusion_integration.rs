//! End-to-end checks for the plan-time kernel fusion pass: the stacked
//! RNN's cell math must fuse into a GEMM register-tile epilogue, the
//! fused-away intermediates must allocate zero scratch (asserted through
//! the registry counters the scratch planner emits), and the fused executor
//! must stay bit-for-bit equal to the reference executor and the
//! interpreter in every SIMD mode.

use std::collections::HashMap;
use std::sync::Mutex;

use ft_backend::{execute, execute_reference};
use ft_core::adt::FractalTensor;
use ft_core::builders::stacked_rnn_program;
use ft_core::expr::OpCode;
use ft_core::interp::run_program;
use ft_core::program::BufferId;
use ft_passes::compile;
use ft_simd::EpiOp;
use ft_tensor::Tensor;
use ft_verify::verify;

/// Serializes the tests in this binary: they flip the global SIMD mode
/// and read deltas of global registry counters, both process-wide.
static LOCK: Mutex<()> = Mutex::new(());

type Inputs = HashMap<BufferId, FractalTensor>;

fn rnn_inputs(n: usize, d: usize, l: usize, h: usize, seed: u64) -> Inputs {
    let mut m = HashMap::new();
    m.insert(
        BufferId(0),
        FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], seed), 2).unwrap(),
    );
    m.insert(
        BufferId(1),
        FractalTensor::from_flat(&Tensor::randn(&[d, h, h], seed + 1).mul_scalar(0.2), 1).unwrap(),
    );
    m
}

fn assert_bitwise_eq(got: &Inputs, want: &Inputs, label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: output sets differ");
    for (id, w) in want {
        let g = &got[id];
        let gb: Vec<u32> = g
            .to_flat()
            .unwrap()
            .to_vec()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let wb: Vec<u32> = w
            .to_flat()
            .unwrap()
            .to_vec()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(gb, wb, "{label}: bit drift in {id:?}");
    }
}

#[test]
fn stacked_rnn_cell_fuses_into_gemm_epilogue() {
    let _g = LOCK.lock().unwrap();
    let compiled = compile(&stacked_rnn_program(2, 3, 4, 8)).unwrap();
    // Every region of the cell computes y = x@w + s; fusion must absorb
    // the Add into the GEMM epilogue in each of them.
    let mut fused = 0usize;
    for block in &compiled.etdg.blocks {
        for stmt in &block.udf.stmts {
            if let OpCode::FusedMatMul { epi, .. } = &stmt.op {
                assert_eq!(epi.as_slice(), [EpiOp::Add], "unexpected epilogue");
                fused += 1;
            }
        }
    }
    assert!(fused > 0, "no FusedMatMul in any block UDF");
    // The rewritten UDFs still pass the verifier's legality re-check.
    let report = verify(&compiled).unwrap();
    assert!(report.udfs > 0);
}

#[test]
fn fused_intermediates_allocate_zero_scratch() {
    let _g = LOCK.lock().unwrap();
    let reg = ft_obs::Registry::global();
    let names = [
        "passes.fusion_applied",
        "exec.udf_scratch_elems",
        "exec.udf_output_elems",
    ];
    let before = names.map(|k| reg.counter(k).get());
    let p = stacked_rnn_program(2, 3, 4, 8);
    let ins = rnn_inputs(2, 3, 4, 8, 11);
    let compiled = compile(&p).unwrap();
    execute(&compiled, &ins, 1).unwrap();
    let [fused, scratch, outputs] = [0, 1, 2].map(|i| reg.counter(names[i]).get() - before[i]);
    assert!(fused >= 1, "fusion pass never fired");
    // `exec.udf_scratch_elems` counts every statement's output window,
    // outputs included; equality with `exec.udf_output_elems` means the
    // fused-away intermediates allocate exactly zero scratch.
    assert!(outputs > 0, "no UDF outputs planned");
    assert_eq!(
        scratch, outputs,
        "fused epilogue intermediates must not allocate scratch"
    );
}

#[test]
fn fused_executor_is_bitwise_stable_in_every_mode() {
    let _g = LOCK.lock().unwrap();
    let p = stacked_rnn_program(3, 3, 5, 16);
    let ins = rnn_inputs(3, 3, 5, 16, 23);
    let compiled = compile(&p).unwrap();
    let saved = ft_simd::mode();
    for mode in [ft_simd::Mode::Scalar, saved] {
        ft_simd::set_mode(mode);
        let exec = execute(&compiled, &ins, 2).unwrap();
        let reference = execute_reference(&compiled, &ins, 1).unwrap();
        let interp = run_program(&p, &ins).unwrap();
        assert_bitwise_eq(&exec, &reference, &format!("exec vs reference ({mode:?})"));
        assert_bitwise_eq(&exec, &interp, &format!("exec vs interp ({mode:?})"));
    }
    ft_simd::set_mode(saved);
}

#[test]
fn fused_and_scalar_modes_agree_within_ulp_budget() {
    let _g = LOCK.lock().unwrap();
    let p = stacked_rnn_program(2, 4, 6, 8);
    let ins = rnn_inputs(2, 4, 6, 8, 31);
    let compiled = compile(&p).unwrap();
    let saved = ft_simd::mode();
    ft_simd::set_mode(ft_simd::Mode::Scalar);
    let scalar = execute(&compiled, &ins, 1).unwrap();
    ft_simd::set_mode(saved);
    let native = execute(&compiled, &ins, 1).unwrap();
    for (id, s) in &scalar {
        let sf = s.to_flat().unwrap();
        let nf = native[id].to_flat().unwrap();
        let diff = ft_tensor::max_rel_diff(&sf, &nf);
        assert!(diff <= 1e-5, "{id:?}: scalar vs native drift {diff}");
    }
}
