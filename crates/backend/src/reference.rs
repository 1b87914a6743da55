//! The pre-pool executor, kept as a differential oracle and as the
//! fallback path.
//!
//! This is the original execution strategy the persistent-pool executor in
//! [`crate::exec`] replaced: every wavefront step of every launch group
//! spawns fresh scoped threads over statically chunked points, each point
//! re-applies `Reordering::to_original` and the full access maps, and
//! cross-member intermediates forward through a hashed per-point overlay.
//! The tests check [`crate::execute`] against it and both against the
//! interpreter, and a guarded run that fails can fall back to it. It is not
//! a performance baseline: the repository benchmark measures the executor
//! against the host's measured ceilings and the `ft-core` interpreter.

use std::collections::HashMap;

use ft_core::adt::FractalTensor;
use ft_core::interp::BufferStore;
use ft_core::program::BufferKind;
use ft_core::BufferId;
use ft_etdg::RegionRead;
use ft_passes::{CompiledProgram, ScheduledGroup};
use ft_tensor::Tensor;

use crate::exec::{core_err, points_into, ExecError};

/// Executes a compiled program by spawning scoped threads per wavefront
/// step (the pre-pool strategy). Semantics are identical to
/// [`crate::execute`]; only the execution substrate differs.
pub fn execute_reference(
    compiled: &CompiledProgram,
    inputs: &HashMap<BufferId, FractalTensor>,
    threads: usize,
) -> Result<HashMap<BufferId, FractalTensor>, ExecError> {
    let etdg = &compiled.etdg;
    let mut stores: Vec<BufferStore> = Vec::with_capacity(etdg.buffers.len());
    for (bi, buf) in etdg.buffers.iter().enumerate() {
        match buf.kind {
            BufferKind::Input => {
                let ft = inputs
                    .get(&BufferId(bi))
                    .ok_or_else(|| ExecError::Input(format!("missing input '{}'", buf.name)))?;
                if ft.prog_dims() != buf.dims {
                    return Err(ExecError::Input(format!(
                        "input '{}' dims {:?} != declared {:?}",
                        buf.name,
                        ft.prog_dims(),
                        buf.dims
                    )));
                }
                stores.push(BufferStore::from_fractal(ft).map_err(core_err)?);
            }
            _ => stores.push(BufferStore::new(&buf.dims, buf.leaf_shape.clone())),
        }
    }

    for (gi, group) in compiled.groups.iter().enumerate() {
        run_group(compiled, group, gi, &mut stores, threads.max(1))?;
    }

    let mut outputs = HashMap::new();
    for (bi, buf) in etdg.buffers.iter().enumerate() {
        if buf.kind == BufferKind::Output {
            outputs.insert(BufferId(bi), stores[bi].to_fractal().map_err(core_err)?);
        }
    }
    Ok(outputs)
}

/// One pending buffer write produced by a point task.
struct PointWrite {
    buffer: usize,
    idx: Vec<i64>,
    value: Tensor,
}

fn run_group(
    compiled: &CompiledProgram,
    group: &ScheduledGroup,
    group_idx: usize,
    stores: &mut [BufferStore],
    threads: usize,
) -> Result<(), ExecError> {
    let r = &group.reordering;
    let d = r.bounds.len();
    let (lo, hi) = r.wavefront_range();
    let mut arena = Vec::new();
    for step in lo..hi {
        let npoints = points_into(r, step, &mut arena);
        if npoints == 0 {
            continue;
        }
        let points: Vec<Vec<i64>> = (0..npoints)
            .map(|p| arena[p * d..p * d + d].to_vec())
            .collect();
        // Compute in parallel (reads only touch earlier steps or the
        // per-point overlay), then apply the writes serially.
        let chunk = points.len().div_ceil(threads);
        let mut results: Vec<Result<Vec<PointWrite>, ExecError>> = Vec::new();
        if threads == 1 || points.len() == 1 {
            results.push(run_points(compiled, group, stores, &points));
        } else {
            let chunks: Vec<&[Vec<i64>]> = points.chunks(chunk).collect();
            let shared: &[BufferStore] = stores;
            // A panicking worker or scope surfaces as a typed error with
            // its original payload, never an abort.
            let panic_err = |payload: &ft_pool::PanicPayload| ExecError::WorkerPanic {
                group: group_idx,
                step,
                message: ft_pool::panic_message(payload),
            };
            let outcome = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|c| scope.spawn(move |_| run_points(compiled, group, shared, c)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|p| panic_err(&p)))
                    .collect::<Vec<_>>()
            })
            .map_err(|p| panic_err(&p))?;
            for joined in outcome {
                results.push(joined?);
            }
        }
        for batch in results {
            for w in batch? {
                stores[w.buffer].set(&w.idx, w.value).map_err(core_err)?;
            }
        }
    }
    Ok(())
}

/// Executes a batch of points (one worker's share of a wavefront step).
fn run_points(
    compiled: &CompiledProgram,
    group: &ScheduledGroup,
    stores: &[BufferStore],
    points: &[Vec<i64>],
) -> Result<Vec<PointWrite>, ExecError> {
    let etdg = &compiled.etdg;
    let mut writes = Vec::new();
    for j in points {
        let t = group
            .reordering
            .to_original(j)
            .map_err(|e| ExecError::Runtime(e.to_string()))?;
        // Per-point overlay: values produced by earlier members at this
        // point (fused cross-nest intermediates) are forwarded without
        // touching the stores. Keyed per buffer so lookups borrow the
        // index slice instead of cloning it.
        let mut overlay: HashMap<usize, HashMap<Vec<i64>, Tensor>> = HashMap::new();
        for &member in &group.members {
            let block = etdg.block(member);
            if !block.domain.contains(&t) {
                continue;
            }
            let mut leaves = Vec::with_capacity(block.reads.len());
            for read in &block.reads {
                match read {
                    RegionRead::Fill { value, leaf_shape } => {
                        leaves.push(Tensor::full(leaf_shape.dims(), *value));
                    }
                    RegionRead::Buffer { buffer, map } => {
                        let idx = map
                            .apply(&t)
                            .map_err(|e| ExecError::Runtime(e.to_string()))?;
                        let forwarded = overlay.get(&buffer.0).and_then(|m| m.get(idx.as_slice()));
                        if let Some(v) = forwarded {
                            leaves.push(v.clone());
                        } else {
                            leaves.push(
                                stores[buffer.0]
                                    .get(&idx)
                                    .map_err(|e| {
                                        ExecError::Runtime(format!(
                                            "block '{}' at t={t:?}: {e}",
                                            block.name
                                        ))
                                    })?
                                    .clone(),
                            );
                        }
                    }
                }
            }
            let results = block
                .udf
                .eval(&leaves)
                .map_err(|e| ExecError::Runtime(e.to_string()))?;
            for (w, value) in block.writes.iter().zip(results) {
                let idx = w
                    .map
                    .apply(&t)
                    .map_err(|e| ExecError::Runtime(e.to_string()))?;
                overlay
                    .entry(w.buffer.0)
                    .or_default()
                    .insert(idx.clone(), value.clone());
                writes.push(PointWrite {
                    buffer: w.buffer.0,
                    idx,
                    value,
                });
            }
        }
    }
    Ok(writes)
}
