//! The end-to-end compile pipeline: parse → access-map fusion → width-wise
//! coarsening → per-group reordering. The result is everything a backend
//! needs to execute or emit code.

use ft_core::Program;
use ft_etdg::{parse_program, BlockId, Etdg, RegionRead};

use crate::coarsen::{coarsen, CoarsePlan};
use crate::layout::{plan_memory, MemoryPlan};
use crate::reorder::{reorder_group, Reordering};
use crate::Result;

/// One launch group with its reordered schedule.
#[derive(Debug, Clone)]
pub struct ScheduledGroup {
    /// Member block nodes (region order: producers of carried values
    /// first).
    pub members: Vec<BlockId>,
    /// The composed operator vector.
    pub ops: Vec<ft_core::OpKind>,
    /// The unimodular reordering (identity with zero sequential dims for
    /// pure map groups).
    pub reordering: Reordering,
}

impl ScheduledGroup {
    /// Number of wavefront steps this group executes sequentially.
    pub fn wavefront_steps(&self) -> i64 {
        let (lo, hi) = self.reordering.wavefront_range();
        hi - lo
    }
}

/// A fully analyzed program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The coarsened graph (copies eliminated).
    pub etdg: Etdg,
    /// The coarsening decisions.
    pub plan: CoarsePlan,
    /// Scheduled groups in execution order.
    pub groups: Vec<ScheduledGroup>,
    /// Flat buffer layouts + arena placement from the lifetime analysis.
    pub memory: MemoryPlan,
}

impl CompiledProgram {
    /// Summary line used by examples and the bench harness.
    pub fn summary(&self) -> String {
        let seqs: Vec<String> = self
            .groups
            .iter()
            .map(|g| {
                format!(
                    "{}[{} member(s), {} step(s)]",
                    self.etdg.block(g.members[0]).name,
                    g.members.len(),
                    g.wavefront_steps()
                )
            })
            .collect();
        format!(
            "{}: {} block(s) -> {} launch group(s): {}",
            self.etdg.name,
            self.etdg.blocks.len(),
            self.groups.len(),
            seqs.join(", ")
        )
    }
}

/// Compiles a program through the full §5.1–§5.2 pipeline.
///
/// # Examples
///
/// ```
/// use ft_core::builders::stacked_rnn_program;
/// use ft_passes::compile;
///
/// // Listing 1's stacked RNN: batch 2, depth 3, length 4, hidden 8.
/// let compiled = compile(&stacked_rnn_program(2, 3, 4, 8)).unwrap();
/// // The four boundary regions fuse into one wavefront launch group with
/// // depth + length - 1 sequential steps.
/// assert_eq!(compiled.groups.len(), 1);
/// assert_eq!(compiled.groups[0].wavefront_steps(), 6);
/// ```
pub fn compile(program: &Program) -> Result<CompiledProgram> {
    let mut root = ft_obs::span("compile", "compile");
    root.field("program", program.name.as_str());

    let (etdg, plan, groups) = compile_scheduled(program)?;
    let memory = {
        let mut s = ft_obs::span("compile", "pass.layout");
        let memory = plan_memory(&etdg, &groups);
        if s.is_recording() {
            s.field("arena_len", memory.arena_len);
            s.field("reused_ranges", memory.reused_ranges);
        }
        memory
    };

    root.field("launch_groups", groups.len());
    Ok(CompiledProgram {
        etdg,
        plan,
        groups,
        memory,
    })
}

/// The structure passes only — parse → coarsen → UDF fusion → per-group
/// reordering — without the memory planner. Shared between [`compile`]
/// (which follows with the concrete `plan_memory`) and shape-polymorphic
/// instantiation (`crate::poly`), which takes its memory plan from an
/// evaluated symbolic template instead.
pub(crate) fn compile_scheduled(
    program: &Program,
) -> Result<(Etdg, CoarsePlan, Vec<ScheduledGroup>)> {
    let parsed = {
        let mut s = ft_obs::span("compile", "pass.parse");
        let parsed = parse_program(program)?;
        if s.is_recording() {
            s.field("blocks", parsed.blocks.len());
            s.field("buffers", parsed.buffers.len());
            s.field("edges", graph_edges(&parsed));
        }
        parsed
    };

    let (mut etdg, plan) = {
        let mut s = ft_obs::span("compile", "pass.coarsen");
        let (blocks_before, edges_before) = (parsed.blocks.len(), graph_edges(&parsed));
        let (etdg, plan) = coarsen(&parsed)?;
        if s.is_recording() {
            let (blocks_after, edges_after) = (etdg.blocks.len(), graph_edges(&etdg));
            // Members fused into an existing group = launches eliminated.
            let fusions: usize = plan
                .groups
                .iter()
                .map(|g| g.members.len().saturating_sub(1))
                .sum();
            s.field("blocks_before", blocks_before);
            s.field("blocks_after", blocks_after);
            s.field("edges_before", edges_before);
            s.field("edges_after", edges_after);
            s.field("launch_groups", plan.launch_count());
            s.field("access_map_fusions", fusions);
        }
        (etdg, plan)
    };

    {
        // UDF-level kernel fusion: SiLU peephole, GEMM epilogue
        // absorption, elementwise-chain collapse. Rewrites block UDFs in
        // place; block reads/writes and the group structure are untouched,
        // so reordering and layout below see the same graph shape. The
        // backend's scratch planner allocates nothing for fused-away
        // intermediates — their statements no longer exist.
        let mut s = ft_obs::span("compile", "pass.fusion");
        let fs = crate::fusion::fuse_graph(&mut etdg);
        if s.is_recording() {
            s.field("applied", fs.applied);
            s.field("rejected", fs.rejected);
            s.field("tmp_elems_saved", fs.tmp_elems_saved);
        }
        let reg = ft_obs::Registry::global();
        reg.counter_add("passes.fusion_applied", fs.applied as u64);
        reg.counter_add("passes.fusion_rejected", fs.rejected as u64);
        reg.counter_add("passes.fusion_tmp_elems_saved", fs.tmp_elems_saved as u64);
    }

    let mut groups = Vec::with_capacity(plan.groups.len());
    for (gi, g) in plan.groups.iter().enumerate() {
        let mut s = ft_obs::span("compile", "pass.reorder");
        let reordering = reorder_group(&etdg, &g.members)?;
        if s.is_recording() {
            let (lo, hi) = reordering.wavefront_range();
            s.field("group", gi);
            s.field("members", g.members.len());
            s.field("sequential_dims", reordering.sequential_dims);
            s.field("wavefront_steps", hi - lo);
        }
        groups.push(ScheduledGroup {
            members: g.members.clone(),
            ops: g.ops.clone(),
            reordering,
        });
    }
    Ok((etdg, plan, groups))
}

/// Buffer-touching edges of the graph: one per region read of a buffer
/// (fills excluded) plus one per region write.
fn graph_edges(g: &Etdg) -> usize {
    g.blocks
        .iter()
        .map(|b| {
            let reads = b
                .reads
                .iter()
                .filter(|r| matches!(r, RegionRead::Buffer { .. }))
                .count();
            reads + b.writes.len()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::builders::stacked_rnn_program;

    #[test]
    fn stacked_rnn_compiles_to_single_wavefront_group() {
        let (n, d, l) = (2usize, 3usize, 4usize);
        let p = stacked_rnn_program(n, d, l, 8);
        let c = compile(&p).unwrap();
        assert_eq!(c.groups.len(), 1);
        let g = &c.groups[0];
        assert_eq!(g.members.len(), 4);
        // Wavefront over d + l: values 0 ..= (d-1)+(l-1), i.e. d+l-1 steps.
        assert_eq!(g.wavefront_steps(), (d + l - 1) as i64);
        assert_eq!(g.reordering.sequential_dims, 1);
        assert!(c.summary().contains("1 launch group"));
    }

    #[test]
    fn wavefront_steps_scale_additively_not_multiplicatively() {
        // The crux of Figure 2: with the wavefront schedule the sequential
        // extent is D + L - 1, not D * L.
        for (d, l) in [(4usize, 16usize), (16, 16), (32, 16)] {
            let p = stacked_rnn_program(2, d, l, 4);
            let c = compile(&p).unwrap();
            assert_eq!(c.groups[0].wavefront_steps(), (d + l - 1) as i64);
        }
    }
}
