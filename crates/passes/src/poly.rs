//! Plan families: one compiled schedule serving every outer extent, and
//! the one cache that holds them.
//!
//! The schedule a program compiles to (§5.1–§5.2) depends on loop
//! *structure*; for a program whose outer axis is a pure `map`
//! (`ft_core::poly::analyze_outer`), the extent of that axis affects only
//! how *wide* the wavefront runs and how *large* the batched buffers are.
//! A program without such an axis is the same thing with nothing symbolic:
//! a family of one extent, every formula a constant. This module exploits
//! that:
//!
//! * [`plan_memory_symbolic`] re-runs the layout/lifetime pass of
//!   `crate::layout` with sizes in [`ft_affine::Lin`] — degree-1 formulas
//!   `c0 + c1·L` over the symbolic extent — producing a [`MemoryTemplate`]
//!   whose stride/size/offset formulas are **evaluated at dispatch** for
//!   whatever extent traffic brings.
//! * [`PolyPlan`] is a compiled *family*: the structure passes run once at
//!   a template extent; [`PolyPlan::instance`] stamps out the plan for a
//!   concrete extent by re-extenting the program, re-running only the
//!   (cheap, structure-preserving) scheduling passes, and evaluating the
//!   memory template — no fresh lifetime analysis, no fresh first-fit.
//! * [`PolyCache`] is the compiled-plan cache, keyed by the family
//!   identity ([`ft_core::family_split`]): one entry serves a whole length
//!   distribution, repeated submissions skip parse, coarsen, reorder (and
//!   any caller-supplied verification) entirely.
//!
//! Cache trust model: the key is a fast non-cryptographic FNV-1a, and a
//! serving process accepts arbitrary programs, so a key match is treated
//! as a *candidate*, never as proof of identity. Each entry stores the
//! family's structural bytes and a hit is only declared after byte-exact
//! verification; programs whose keys collide (accidental at scale, or
//! engineered — FNV is not collision-resistant) simply occupy separate
//! slots under one key. A collision therefore costs one extra build and
//! can never return a plan compiled from a different program.
//! Concurrency: lookups take a read lock; a miss builds *outside* any lock
//! and inserts under a short write lock. Two racing builders of one family
//! both succeed and the first insert wins — wasted work, not
//! incorrectness. Hits and misses are counted on the cache and mirrored to
//! the `passes.plan_cache_hits` / `passes.plan_cache_misses` counters.
//!
//! Soundness of the symbolic first-fit: a free range is reused only when
//! it *dominates* the request componentwise ([`Lin::dominates`]), which
//! implies it fits at **every** extent, so evaluated arena ranges of
//! simultaneously-live buffers are disjoint for all `L` — conservative
//! (some reuse opportunities that exist at one concrete extent are
//! skipped), never incorrect. Each instantiation additionally cross-checks
//! the evaluated per-buffer lengths against the instance's real shapes and
//! falls back to the concrete planner (counting
//! `passes.poly_template_fallback`) on any mismatch.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use ft_affine::Lin;
use ft_core::poly::with_outer_extent;
use ft_core::sig::{family_split, poly_split, PolySplit};
use ft_core::{BufferKind, OuterInfo, Program, StructKey};
use ft_etdg::Etdg;

use crate::layout::{plan_memory, BufferLayout, MemoryPlan, Placement};
use crate::pipeline::{compile_scheduled, CompiledProgram, ScheduledGroup};
use crate::{PassError, Result};

/// The symbolic layout of one buffer: everything extent-independent is
/// concrete, everything extent-dependent is a [`Lin`] formula.
#[derive(Debug, Clone)]
pub struct SymBufferLayout {
    /// Whether the buffer's outer dimension scales with the extent.
    pub batched: bool,
    /// Extent-independent dimensions: `dims[1..]` for batched buffers
    /// (the outer slot is the symbolic extent), all of `dims` for shared.
    pub fixed_dims: Vec<usize>,
    /// Static leaf shape.
    pub leaf_dims: Vec<usize>,
    /// Row-major leaf strides. These are *constants* even for batched
    /// buffers: stride `r` is the product of dims `r+1..`, which never
    /// includes the outer extent.
    pub leaf_strides: Vec<i64>,
    /// True for caller-owned extern inputs.
    pub is_extern: bool,
    /// Arena offset formula (unused for extern buffers).
    pub offset: Lin,
    /// Written-bitmap offset formula (unused for extern buffers).
    pub slot_off: Lin,
    /// Flat length formula in elements.
    pub len: Lin,
    /// Leaf-count formula.
    pub leaves: Lin,
    /// Live interval in group execution order (extent-invariant).
    pub live: (usize, usize),
}

/// A memory plan with its sizes kept symbolic over the outer extent:
/// the "stride/size formulas evaluated at dispatch" artifact.
#[derive(Debug, Clone)]
pub struct MemoryTemplate {
    /// Per-buffer symbolic layouts, indexed by `BufId`.
    pub buffers: Vec<SymBufferLayout>,
    /// Arena length formula.
    pub arena_len: Lin,
    /// Written-bitmap length formula.
    pub slots_len: Lin,
    /// Free-list reuses the symbolic first-fit performed.
    pub reused_ranges: usize,
    /// The concrete extent the template was derived at.
    pub template_extent: usize,
}

impl MemoryTemplate {
    /// Evaluates every formula at extent `l`, producing the concrete
    /// [`MemoryPlan`] the executor consumes. Pure arithmetic — no
    /// liveness analysis, no allocation decisions — so this is cheap
    /// enough for the dispatch path.
    pub fn evaluate(&self, l: usize) -> MemoryPlan {
        let buffers = self
            .buffers
            .iter()
            .map(|b| {
                let dims: Vec<usize> = if b.batched {
                    std::iter::once(l)
                        .chain(b.fixed_dims.iter().copied())
                        .collect()
                } else {
                    b.fixed_dims.clone()
                };
                let leaf_len: usize = b.leaf_dims.iter().product();
                let leaves = b.leaves.eval(l);
                let placement = if b.is_extern {
                    Placement::Extern
                } else {
                    Placement::Arena {
                        offset: b.offset.eval(l),
                        slot_off: b.slot_off.eval(l),
                    }
                };
                BufferLayout {
                    dims,
                    leaf_dims: b.leaf_dims.clone(),
                    leaf_len,
                    leaves,
                    len: b.len.eval(l),
                    leaf_strides: b.leaf_strides.clone(),
                    placement,
                    live: b.live,
                }
            })
            .collect();
        MemoryPlan {
            buffers,
            arena_len: self.arena_len.eval(l),
            slots_len: self.slots_len.eval(l),
            reused_ranges: self.reused_ranges,
        }
    }
}

fn lin_err(e: ft_affine::AffineError) -> PassError {
    PassError::Affine(e.to_string())
}

/// The symbolic size of buffer `bi`: `(leaves, len)` as formulas.
fn sym_size(etdg: &Etdg, bi: usize, batched: bool) -> Result<(Lin, Lin)> {
    let buf = &etdg.buffers[bi];
    let leaf_len: usize = buf.leaf_shape.dims().iter().product();
    let leaves = if batched {
        // dims[0] is the symbolic extent; the rest are fixed.
        Lin::scaled(buf.dims[1..].iter().product())
    } else {
        Lin::constant(buf.dims.iter().product())
    };
    let len = leaves.scale(leaf_len).map_err(lin_err)?;
    Ok((leaves, len))
}

/// Builds the symbolic layout record for buffer `bi`.
fn make_sym_layout(
    etdg: &Etdg,
    bi: usize,
    batched: bool,
    is_extern: bool,
    offset: Lin,
    slot_off: Lin,
    live: (usize, usize),
) -> Result<SymBufferLayout> {
    let buf = &etdg.buffers[bi];
    let (leaves, len) = sym_size(etdg, bi, batched)?;
    let fixed_dims = if batched {
        buf.dims[1..].to_vec()
    } else {
        buf.dims.clone()
    };
    Ok(SymBufferLayout {
        batched,
        fixed_dims,
        leaf_dims: buf.leaf_shape.dims().to_vec(),
        leaf_strides: crate::layout::leaf_strides(&buf.dims),
        is_extern,
        offset,
        slot_off,
        len,
        leaves,
        live,
    })
}

/// [`crate::layout::plan_memory`] with every size a [`Lin`] formula over
/// the outer extent.
///
/// `etdg`/`groups` are the structure passes' output at the template
/// extent; `batched[bi]` says whether buffer `bi`'s outer dimension is
/// the symbolic extent (`ft_core::OuterInfo::batched` — buffer ids map
/// 1:1 from program to ETDG). Liveness and the group timeline are
/// extent-invariant for poly-eligible programs (the verifier checks this
/// across extents); only the first-fit changes: a free range is reused
/// only when it dominates the request at **every** extent.
pub fn plan_memory_symbolic(
    etdg: &Etdg,
    groups: &[ScheduledGroup],
    batched: &[bool],
    template_extent: usize,
) -> Result<MemoryTemplate> {
    let nbuf = etdg.buffers.len();
    if batched.len() != nbuf {
        return Err(PassError::Invalid(format!(
            "batched mask covers {} buffers, graph has {nbuf}",
            batched.len()
        )));
    }
    let end = groups.len();
    let mut first = vec![end; nbuf];
    let mut last = vec![0usize; nbuf];
    for (gi, g) in groups.iter().enumerate() {
        for &m in &g.members {
            let block = etdg.block(m);
            let touched = block
                .reads
                .iter()
                .filter_map(|r| r.buffer())
                .chain(block.writes.iter().map(|w| w.buffer));
            for b in touched {
                first[b.0] = first[b.0].min(gi);
                last[b.0] = last[b.0].max(gi);
            }
        }
    }
    let live_end: Vec<usize> = (0..nbuf)
        .map(|bi| {
            if etdg.buffers[bi].kind == BufferKind::Output {
                end
            } else {
                last[bi]
            }
        })
        .collect();

    // Symbolic first-fit over the group timeline; free ranges are
    // `(offset, len)` formulas kept sorted by (c0, c1) for determinism.
    let mut layouts: Vec<Option<SymBufferLayout>> = vec![None; nbuf];
    let mut free: Vec<(Lin, Lin)> = Vec::new();
    let mut arena_len = Lin::ZERO;
    let mut slots_len = Lin::ZERO;
    let mut reused_ranges = 0usize;

    for gi in 0..=end {
        for bi in 0..nbuf {
            if live_end[bi] + 1 == gi && first[bi] <= last[bi] {
                if let Some(
                    l @ SymBufferLayout {
                        is_extern: false, ..
                    },
                ) = &layouts[bi]
                {
                    if !l.len.is_zero() {
                        free.push((l.offset, l.len));
                        free.sort_unstable_by_key(|&(o, _)| (o.c0, o.c1));
                    }
                }
            }
        }
        if gi == end {
            break;
        }
        for bi in 0..nbuf {
            if first[bi] != gi || layouts[bi].is_some() {
                continue;
            }
            let buf = &etdg.buffers[bi];
            let live_to = live_end[bi];
            if buf.kind == BufferKind::Input {
                layouts[bi] = Some(make_sym_layout(
                    etdg,
                    bi,
                    batched[bi],
                    true,
                    Lin::ZERO,
                    Lin::ZERO,
                    (gi, end),
                )?);
                continue;
            }
            let (leaves, need) = sym_size(etdg, bi, batched[bi])?;
            let mut offset = None;
            if let Some(pos) = free.iter().position(|(_, flen)| flen.dominates(&need)) {
                let (foff, flen) = free.remove(pos);
                offset = Some(foff);
                let remainder = flen.sub(need).map_err(lin_err)?;
                if !remainder.is_zero() {
                    free.push((foff.add(need).map_err(lin_err)?, remainder));
                    free.sort_unstable_by_key(|&(o, _)| (o.c0, o.c1));
                }
                reused_ranges += 1;
            }
            let offset = match offset {
                Some(o) => o,
                None => {
                    let o = arena_len;
                    arena_len = arena_len.add(need).map_err(lin_err)?;
                    o
                }
            };
            let slot_off = slots_len;
            slots_len = slots_len.add(leaves).map_err(lin_err)?;
            layouts[bi] = Some(make_sym_layout(
                etdg,
                bi,
                batched[bi],
                false,
                offset,
                slot_off,
                (gi, live_to),
            )?);
        }
    }

    // Untouched buffers: pinned whole-program, as in the concrete planner.
    let mut buffers = Vec::with_capacity(nbuf);
    for (bi, l) in layouts.into_iter().enumerate() {
        buffers.push(match l {
            Some(l) => l,
            None => {
                let buf = &etdg.buffers[bi];
                if buf.kind == BufferKind::Input {
                    make_sym_layout(etdg, bi, batched[bi], true, Lin::ZERO, Lin::ZERO, (0, end))?
                } else {
                    let (leaves, need) = sym_size(etdg, bi, batched[bi])?;
                    let offset = arena_len;
                    arena_len = arena_len.add(need).map_err(lin_err)?;
                    let slot_off = slots_len;
                    slots_len = slots_len.add(leaves).map_err(lin_err)?;
                    make_sym_layout(etdg, bi, batched[bi], false, offset, slot_off, (0, end))?
                }
            }
        });
    }

    Ok(MemoryTemplate {
        buffers,
        arena_len,
        slots_len,
        reused_ranges,
        template_extent,
    })
}

/// A compiled program *family*: structure passes run once, instances at
/// concrete outer extents stamped out on demand (see the module docs).
pub struct PolyPlan {
    /// The program at the template extent (structure donor for
    /// re-extenting).
    program: Program,
    /// The signature split: family key, masked bytes, buffer roles.
    split: PolySplit,
    /// The symbolic memory plan.
    template: MemoryTemplate,
    /// Concrete instances by outer extent.
    instances: RwLock<HashMap<usize, Arc<CompiledProgram>>>,
    /// Per-extent build claims: concurrent read-misses for one extent
    /// serialize on the extent's claim lock so exactly one caller compiles
    /// while different extents still build in parallel.
    building: Mutex<HashMap<usize, Arc<Mutex<()>>>>,
    /// Instances built (not served from the instance memo).
    instantiations: AtomicU64,
    /// Instantiations whose template cross-check failed (fell back to the
    /// concrete planner).
    template_fallbacks: AtomicU64,
}

impl PolyPlan {
    /// Builds the family for `program`, or `None` when its outer axis is
    /// not polymorphic. The template extent is the program's own extent;
    /// the instance memo is primed with it.
    pub fn build(program: &Program) -> Result<Option<PolyPlan>> {
        poly_split(program)
            .map(|split| Self::from_split(program, split))
            .transpose()
    }

    /// The family of `program`, total: [`build`](Self::build) when the
    /// outer axis is polymorphic, otherwise a one-extent family whose only
    /// instance is the program as declared.
    pub fn family(program: &Program) -> Result<PolyPlan> {
        Self::from_split(program, family_split(program))
    }

    fn from_split(program: &Program, split: PolySplit) -> Result<PolyPlan> {
        let (etdg, _plan, groups) = compile_scheduled(program)?;
        let template =
            plan_memory_symbolic(&etdg, &groups, &split.info.batched, split.outer_extent)?;
        let plan = PolyPlan {
            program: program.clone(),
            split,
            template,
            instances: RwLock::new(HashMap::new()),
            building: Mutex::new(HashMap::new()),
            instantiations: AtomicU64::new(0),
            template_fallbacks: AtomicU64::new(0),
        };
        plan.instance(plan.split.outer_extent)?;
        Ok(plan)
    }

    /// False for a one-extent family: [`instance`](Self::instance) is
    /// defined only at [`template_extent`](Self::template_extent).
    pub fn polymorphic(&self) -> bool {
        self.split.polymorphic
    }

    /// Buffer roles along the polymorphic axis.
    pub fn info(&self) -> &OuterInfo {
        &self.split.info
    }

    /// The symbolic memory plan.
    pub fn template(&self) -> &MemoryTemplate {
        &self.template
    }

    /// The extent the template was derived at.
    pub fn template_extent(&self) -> usize {
        self.split.outer_extent
    }

    /// Instances currently memoized.
    pub fn cached_instances(&self) -> usize {
        self.instances.read().map(|m| m.len()).unwrap_or(0)
    }

    /// Instances built so far (memo misses).
    pub fn instantiations(&self) -> u64 {
        self.instantiations.load(Ordering::Relaxed)
    }

    /// Instantiations that failed the template cross-check and fell back
    /// to the concrete planner.
    pub fn template_fallbacks(&self) -> u64 {
        self.template_fallbacks.load(Ordering::Relaxed)
    }

    /// The concrete plan for outer extent `l`: memoized, else stamped out
    /// by re-extenting the program, re-running the structure passes, and
    /// evaluating the memory template at `l` (dispatch-time stride/size
    /// evaluation — the lifetime analysis and first-fit never re-run).
    pub fn instance(&self, l: usize) -> Result<Arc<CompiledProgram>> {
        if l == 0 {
            return Err(PassError::Invalid(
                "cannot instantiate a plan at outer extent 0".into(),
            ));
        }
        if !self.split.polymorphic && l != self.split.outer_extent {
            return Err(PassError::Invalid(format!(
                "the program has no polymorphic outer axis: its family exists at \
                 extent {} only, not {l}",
                self.split.outer_extent
            )));
        }
        if let Ok(m) = self.instances.read() {
            if let Some(p) = m.get(&l) {
                return Ok(Arc::clone(p));
            }
        }
        // Read miss: claim the extent so concurrent missers for one `l`
        // cost exactly one compile (and one counter bump) while other
        // extents keep building in parallel. A poisoned claim table or
        // claim lock degrades to unserialized builds — the memo insert in
        // `build_instance` still keeps a single canonical instance.
        let claim = match self.building.lock() {
            Ok(mut b) => Arc::clone(b.entry(l).or_default()),
            Err(_) => Arc::new(Mutex::new(())),
        };
        let held = match claim.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Double-check under the claim: the racer that held it before us
        // may have published the instance already.
        let published = self
            .instances
            .read()
            .ok()
            .and_then(|m| m.get(&l).map(Arc::clone));
        let out = match published {
            Some(p) => Ok(p),
            None => self.build_instance(l),
        };
        drop(held);
        if let Ok(mut b) = self.building.lock() {
            b.remove(&l);
        }
        out
    }

    /// Compiles and publishes the instance at `l`. The caller holds the
    /// extent's build claim; errors leave no memo entry, so later callers
    /// retry the compile.
    fn build_instance(&self, l: usize) -> Result<Arc<CompiledProgram>> {
        let inst_program = with_outer_extent(&self.program, &self.split.info, l);
        let (etdg, plan, groups) = compile_scheduled(&inst_program)?;
        let memory = {
            let evaluated = self.template.evaluate(l);
            if template_matches(&evaluated, &etdg) {
                evaluated
            } else {
                // Formula drift (should not happen for verified families):
                // degrade to a fresh concrete layout, never to a bad plan.
                self.template_fallbacks.fetch_add(1, Ordering::Relaxed);
                ft_obs::Registry::global()
                    .counter("passes.poly_template_fallback")
                    .inc();
                plan_memory(&etdg, &groups)
            }
        };
        self.instantiations.fetch_add(1, Ordering::Relaxed);
        ft_obs::Registry::global()
            .counter("passes.plan_instantiations")
            .inc();
        let compiled = Arc::new(CompiledProgram {
            etdg,
            plan,
            groups,
            memory,
        });
        let out = match self.instances.write() {
            Ok(mut m) => Arc::clone(m.entry(l).or_insert_with(|| Arc::clone(&compiled))),
            // Poisoned memo degrades to uncached instances.
            Err(_) => compiled,
        };
        Ok(out)
    }
}

/// The dispatch-time safety net: evaluated layouts must agree with the
/// instance graph's real shapes on every buffer.
fn template_matches(evaluated: &MemoryPlan, etdg: &Etdg) -> bool {
    evaluated.buffers.len() == etdg.buffers.len()
        && evaluated.buffers.iter().zip(&etdg.buffers).all(|(l, b)| {
            let leaf_len: usize = b.leaf_shape.dims().iter().product();
            let leaves: usize = b.dims.iter().product();
            l.dims == b.dims && l.leaves == leaves && l.len == leaves * leaf_len
        })
}

impl std::fmt::Debug for PolyPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolyPlan")
            .field("key", &self.split.key)
            .field("template_extent", &self.split.outer_extent)
            .field("cached_instances", &self.cached_instances())
            .finish()
    }
}

/// One verified slot: the family's structural bytes plus the family.
struct FamilyEntry {
    bytes: Box<[u8]>,
    family: Arc<PolyPlan>,
}

/// The compiled-plan cache: plan families keyed by [`StructKey`], with
/// byte-exact verification of the family's structural bytes on every hit
/// (see the module docs). A single entry serves every outer extent of one
/// program structure.
#[derive(Default)]
pub struct PolyCache {
    map: RwLock<HashMap<StructKey, Vec<FamilyEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PolyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached families (colliding keys count each slot).
    pub fn len(&self) -> usize {
        self.map
            .read()
            .map(|m| m.values().map(Vec::len).sum())
            .unwrap_or(0)
    }

    /// True when no family is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= family builds triggered through this cache) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Concrete instances memoized across all cached families.
    pub fn cached_instances(&self) -> usize {
        self.map
            .read()
            .map(|m| {
                m.values()
                    .flatten()
                    .map(|e| e.family.cached_instances())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// A lookup that only succeeds when the stored bytes match the probe's
    /// exactly — a colliding key is a miss, not a hit.
    fn lookup_verified(&self, split: &PolySplit) -> Option<Arc<PolyPlan>> {
        let found = self.map.read().ok().and_then(|m| {
            m.get(&split.key)?
                .iter()
                .find(|e| *e.bytes == *split.bytes)
                .map(|e| Arc::clone(&e.family))
        });
        if found.is_some() {
            count(&self.hits, "passes.plan_cache_hits");
        }
        found
    }

    /// The cached family for `split` — `program`'s
    /// [`ft_core::family_split`], computed once by the caller — or builds
    /// one with `build_fn` ([`PolyPlan::family`], or `ft-verify`'s
    /// `build_poly_verified` to layer checks onto cold builds without
    /// re-verifying hits) and caches it. The `bool` is true on a cache
    /// hit. A failed build caches nothing.
    pub fn get_or_build_with<E>(
        &self,
        program: &Program,
        split: &PolySplit,
        build_fn: impl FnOnce(&Program) -> std::result::Result<PolyPlan, E>,
    ) -> std::result::Result<(Arc<PolyPlan>, bool), E> {
        if let Some(family) = self.lookup_verified(split) {
            return Ok((family, true));
        }
        count(&self.misses, "passes.plan_cache_misses");
        let built = Arc::new(build_fn(program)?);
        let family = match self.map.write() {
            Ok(mut m) => {
                let entries = m.entry(split.key).or_default();
                // A racing builder may have inserted this family while we
                // built outside the lock: first insert wins.
                match entries.iter().find(|e| *e.bytes == *split.bytes) {
                    Some(e) => Arc::clone(&e.family),
                    None => {
                        entries.push(FamilyEntry {
                            bytes: split.bytes.clone().into_boxed_slice(),
                            family: Arc::clone(&built),
                        });
                        built
                    }
                }
            }
            // A poisoned map (writer panicked) degrades to uncached builds.
            Err(_) => built,
        };
        Ok((family, false))
    }
}

/// Bumps a cache counter and its registry twin.
fn count(local: &AtomicU64, name: &'static str) {
    local.fetch_add(1, Ordering::Relaxed);
    ft_obs::Registry::global().counter(name).inc();
}

impl std::fmt::Debug for PolyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolyCache")
            .field("families", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::compile;
    use ft_core::builders::stacked_rnn_program;

    #[test]
    fn template_evaluates_to_disjoint_layouts_at_every_extent() {
        let p = stacked_rnn_program(4, 3, 4, 8);
        let family = PolyPlan::build(&p).unwrap().expect("poly-eligible");
        for l in [1usize, 2, 4, 7, 64] {
            let m = family.template().evaluate(l);
            for (i, a) in m.buffers.iter().enumerate() {
                let Placement::Arena { offset: ao, .. } = a.placement else {
                    continue;
                };
                assert!(ao + a.len <= m.arena_len, "range exceeds arena at L={l}");
                for b in m.buffers.iter().skip(i + 1) {
                    let Placement::Arena { offset: bo, .. } = b.placement else {
                        continue;
                    };
                    let ranges_overlap = ao < bo + b.len && bo < ao + a.len;
                    let lives_overlap = a.live.0 <= b.live.1 && b.live.0 <= a.live.1;
                    assert!(
                        !(ranges_overlap && lives_overlap),
                        "live buffers share arena space at L={l}"
                    );
                }
            }
        }
    }

    #[test]
    fn instances_match_exact_shape_compiles_structurally() {
        let p = stacked_rnn_program(4, 3, 4, 8);
        let family = PolyPlan::build(&p).unwrap().unwrap();
        for l in [1usize, 2, 4, 9, 32] {
            let inst = family.instance(l).unwrap();
            let fresh = compile(&stacked_rnn_program(l, 3, 4, 8)).unwrap();
            assert_eq!(inst.groups.len(), fresh.groups.len());
            for (a, b) in inst.groups.iter().zip(&fresh.groups) {
                assert_eq!(a.members, b.members);
                assert_eq!(a.ops, b.ops);
                assert_eq!(a.wavefront_steps(), b.wavefront_steps());
            }
            // Same shapes everywhere; arena size may differ (the symbolic
            // first-fit is conservative) but never under the concrete one.
            for (ia, fb) in inst.memory.buffers.iter().zip(&fresh.memory.buffers) {
                assert_eq!(ia.dims, fb.dims);
                assert_eq!(ia.len, fb.len);
                assert_eq!(ia.leaf_strides, fb.leaf_strides);
            }
            assert!(inst.memory.arena_len >= fresh.memory.arena_len);
            assert_eq!(
                family.template_fallbacks(),
                0,
                "template cross-check must hold at L={l}"
            );
        }
    }

    #[test]
    fn instance_memo_builds_each_extent_once() {
        let p = stacked_rnn_program(2, 2, 3, 8);
        let family = PolyPlan::build(&p).unwrap().unwrap();
        let built = family.instantiations();
        let a = family.instance(6).unwrap();
        let b = family.instance(6).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(family.instantiations(), built + 1);
        assert!(family.instance(0).is_err());
    }

    fn outer_scan_rnn(n: usize, l: usize) -> Program {
        let mut p = stacked_rnn_program(n, 3, l, 8);
        for nest in &mut p.nests {
            nest.ops[0] = ft_core::OpKind::ScanL;
        }
        p
    }

    fn cached(cache: &PolyCache, p: &Program) -> (Arc<PolyPlan>, bool) {
        cache
            .get_or_build_with(p, &family_split(p), PolyPlan::family)
            .unwrap()
    }

    #[test]
    fn one_extent_family_instantiates_only_at_its_own_extent() {
        let p = outer_scan_rnn(2, 4);
        assert!(PolyPlan::build(&p).unwrap().is_none());
        let family = PolyPlan::family(&p).unwrap();
        assert!(!family.polymorphic());
        assert!(family.info().batched.iter().all(|&b| !b));
        // The one instance is the program as declared, laid out exactly
        // as the concrete planner would.
        let inst = family.instance(2).unwrap();
        let fresh = compile(&p).unwrap();
        assert_eq!(inst.memory.arena_len, fresh.memory.arena_len);
        for (a, b) in inst.memory.buffers.iter().zip(&fresh.memory.buffers) {
            assert_eq!(
                (&a.dims, a.len, &a.placement),
                (&b.dims, b.len, &b.placement)
            );
        }
        assert_eq!(family.template_fallbacks(), 0);
        assert!(matches!(family.instance(3), Err(PassError::Invalid(_))));
        assert_eq!(family.cached_instances(), 1);
    }

    #[test]
    fn second_lookup_hits_under_any_name_and_shares_the_family() {
        let cache = PolyCache::new();
        let p = stacked_rnn_program(2, 3, 4, 8);
        let mut renamed = p.clone();
        renamed.name = "same_structure_other_name".into();
        for b in &mut renamed.buffers {
            b.name = format!("{}_renamed", b.name);
        }
        let (a, hit_a) = cached(&cache, &p);
        assert!(!hit_a);
        for q in [&p, &renamed] {
            let (b, hit_b) = cached(&cache, q);
            assert!(hit_b, "same structure must hit the cache");
            assert!(Arc::ptr_eq(&a, &b));
        }
        assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 1, 2));
    }

    #[test]
    fn one_entry_per_family_however_many_extents() {
        // Polymorphic: four extents, one entry.
        let cache = PolyCache::new();
        for l in [16usize, 24, 48, 96] {
            let (family, _) = cached(&cache, &stacked_rnn_program(l, 2, 3, 8));
            family.instance(l).unwrap();
        }
        assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 1, 3));
        assert!(cache.cached_instances() >= 4);
        // A different structure is a different family.
        cached(&cache, &stacked_rnn_program(16, 2, 3, 16));
        assert_eq!(cache.len(), 2);
        // Not polymorphic: every shape is its own one-extent family.
        let cache = PolyCache::new();
        cached(&cache, &outer_scan_rnn(2, 4));
        cached(&cache, &outer_scan_rnn(3, 4));
        cached(&cache, &outer_scan_rnn(2, 5));
        assert_eq!((cache.len(), cache.misses(), cache.hits()), (3, 3, 0));
    }

    #[test]
    fn build_errors_propagate_and_cache_nothing() {
        let cache = PolyCache::new();
        let p = stacked_rnn_program(2, 3, 4, 8);
        let err: std::result::Result<_, String> =
            cache.get_or_build_with(&p, &family_split(&p), |_| {
                Err("verification failed".to_string())
            });
        assert!(err.is_err());
        assert!(cache.is_empty());
        // A later good build still works.
        let (_, hit) = cached(&cache, &p);
        assert!(!hit);
    }

    /// A key collision must never hand back a family built from a
    /// different program: plant a foreign family under this program's
    /// exact key (with its own, foreign, structural bytes) and check the
    /// lookup refuses it, rebuilds, and keeps both slots.
    #[test]
    fn key_collision_is_verified_not_trusted() {
        let cache = PolyCache::new();
        let p = stacked_rnn_program(2, 3, 4, 8);
        let split = family_split(&p);

        // The "other program" that happens to share p's key.
        let foreign = stacked_rnn_program(2, 3, 5, 8);
        let forged = PolySplit {
            key: split.key,
            ..family_split(&foreign)
        };
        let (foreign_family, _) = cache
            .get_or_build_with(&foreign, &forged, PolyPlan::family)
            .unwrap();

        assert!(
            cache.lookup_verified(&split).is_none(),
            "colliding key with different structure must miss"
        );
        let (family, hit) = cached(&cache, &p);
        assert!(!hit, "collision must trigger a fresh build");
        assert!(
            !Arc::ptr_eq(&family, &foreign_family),
            "must not serve the foreign program's family"
        );
        assert_eq!(cache.len(), 2, "both structures live under one key");

        // And from now on the real program hits its own verified slot.
        let (again, hit) = cached(&cache, &p);
        assert!(hit);
        assert!(Arc::ptr_eq(&family, &again));
    }
}
