//! Invariants 3 and 4 — access-map range, fused-map agreement, wavefront
//! order and unwritten reads — decided once per access map.
//!
//! Every block domain the parser and the passes build is a box (a
//! `from_box` hull cut by single-variable thresholds), and every access
//! map is affine, so each question about "every point of the domain" is a
//! question about a few corners or box differences:
//!
//! * **Range.** Row `i` of `M·t + o` takes its extremes at two corners of
//!   the box; both indices inside the buffer means every index is.
//!   Non-box domains bound each row by Fourier–Motzkin instead.
//! * **Fused map.** `fused.matrix · T == M` with equal offsets makes the
//!   executor's `(M·T⁻¹)·j + o` agree with `M·t + o` everywhere.
//! * **Order and unwritten reads.** A read `R·t + r` of a group-owned
//!   buffer whose writers all share its injective matrix is served by
//!   writer `w` at `t − δ_w` (`R·δ_w = o_w − r`), on the read points
//!   `P_r ∩ (P_w + δ_w)`. Wherever that is non-empty the writer must run
//!   first: `row₀(T)·δ_w ≥ 1`, or `δ_w = 0` from an earlier member (the
//!   scratch-slot forwarding case). The read box minus every shifted writer
//!   box must be empty, or some index is read but never written.
//!
//! Violations carry a real witness point (a corner, or the first point of
//! a violating box in lexicographic order). An access the rules cannot
//! decide — a non-box domain, a writer with another matrix, writers whose
//! images overlap — is checked by the per-point code below for that access
//! only, and its points are counted in [`VerifyReport::points`].

use std::collections::{HashMap, HashSet};

use ft_affine::{AffineMap, ConstraintSet, IntBox, IntMat};
use ft_etdg::{sample_points, BlockId, BlockNode, BufId, Etdg, RegionRead};
use ft_passes::{CompiledProgram, Reordering, ScheduledGroup};

use crate::{AccessKind, VerifyError, VerifyReport, POINT_CAP};

/// How invariants 3 and 4 are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Per access map; per point only where the map rules cannot decide.
    Maps,
    /// Per point for every access (the reference the map rules are
    /// cross-validated against).
    Points,
}

/// One access: the buffer, its map, and whether it reads or writes.
struct Access<'a> {
    buffer: BufId,
    map: &'a AffineMap,
    kind: AccessKind,
}

/// The buffer reads and writes of a block, reads first.
fn accesses(block: &BlockNode) -> (Vec<Access<'_>>, Vec<Access<'_>>) {
    let reads = block
        .reads
        .iter()
        .filter_map(|rd| match rd {
            RegionRead::Buffer { buffer, map } => Some(Access {
                buffer: *buffer,
                map,
                kind: AccessKind::Read,
            }),
            RegionRead::Fill { .. } => None,
        })
        .collect();
    let writes = block
        .writes
        .iter()
        .map(|w| Access {
            buffer: w.buffer,
            map: &w.map,
            kind: AccessKind::Write,
        })
        .collect();
    (reads, writes)
}

/// The block's iteration domain (its constraints within its extents'
/// hull) as a box, when it is one.
fn domain_box(block: &BlockNode) -> Option<IntBox> {
    if block.domain.nvars() != block.extents.len() {
        return None;
    }
    block.domain.box_within(&IntBox::hull(&block.extents))
}

/// Whether strided sampling, not full enumeration, covers the block.
fn sampled(block: &BlockNode) -> bool {
    block.extents.iter().product::<usize>() > POINT_CAP
}

/// One writer of a group-owned buffer.
struct Writer<'a> {
    /// Member position in the group.
    member: usize,
    block: &'a BlockNode,
    map: &'a AffineMap,
}

/// Every write of one group-owned buffer, in member order.
struct Writers<'a> {
    buffer: BufId,
    list: Vec<Writer<'a>>,
    /// True when the map rules apply to reads of the buffer: every writer
    /// has a box domain and one shared injective matrix, and no index is
    /// written twice (so each read index has at most one writer).
    by_map: bool,
}

impl<'a> Writers<'a> {
    fn of(buffer: BufId, blocks: &[&'a BlockNode], doms: &[Option<IntBox>]) -> Self {
        let list: Vec<Writer<'a>> = blocks
            .iter()
            .enumerate()
            .flat_map(|(member, block)| {
                block
                    .writes
                    .iter()
                    .filter(|w| w.buffer == buffer)
                    .map(move |w| Writer {
                        member,
                        block,
                        map: &w.map,
                    })
            })
            .collect();
        let by_map = Self::disjoint(&list, doms);
        Writers {
            buffer,
            list,
            by_map,
        }
    }

    /// Whether the writers share one injective matrix over box domains
    /// and their images are pairwise disjoint.
    fn disjoint(list: &[Writer<'_>], doms: &[Option<IntBox>]) -> bool {
        let Some(first) = list.first() else {
            return false;
        };
        let w = first.map.matrix();
        let boxed = |x: &Writer<'_>| doms[x.member].as_ref();
        if !first.map.is_injective()
            || list
                .iter()
                .any(|x| x.map.matrix() != w || boxed(x).is_none())
        {
            return false;
        }
        list.iter().enumerate().all(|(k, a)| {
            list[k + 1..].iter().all(|b| {
                // W·ta + oa = W·tb + ob  <=>  ta = tb + e with W·e = ob − oa.
                match shift(w, b.map.offset(), a.map.offset()) {
                    Ok(Some(e)) => boxed(a)
                        .zip(boxed(b))
                        .is_some_and(|(pa, pb)| pa.intersect(&pb.shifted(&e)).is_empty()),
                    Ok(None) => true,
                    Err(_) => false,
                }
            })
        })
    }
}

/// The integer `e` with `m·e = to − from`: how far apart two accesses
/// through the same injective matrix are when they touch the same index.
fn shift(m: &IntMat, to: &[i64], from: &[i64]) -> ft_affine::Result<Option<Vec<i64>>> {
    let rhs: Vec<i64> = to.iter().zip(from).map(|(a, b)| a - b).collect();
    m.solve_unique(&rhs)
}

/// The launch group under check, with its reordering.
#[derive(Clone, Copy)]
struct Sched<'a> {
    gi: usize,
    r: &'a Reordering,
}

/// Where checks run: one launch group, or the blocks outside every group
/// (range only — no reordering, no fused maps, no wavefront).
struct Scope<'a> {
    etdg: &'a Etdg,
    sched: Option<Sched<'a>>,
    mode: Mode,
}

impl Scope<'_> {
    fn group(&self) -> Option<usize> {
        self.sched.map(|s| s.gi)
    }

    fn structural(&self, block: &BlockNode, detail: String) -> VerifyError {
        VerifyError::Structural {
            group: self.group(),
            block: block.name.clone(),
            detail,
        }
    }

    /// The wavefront step of an original-space point (0 without a
    /// sequential dimension: the whole group is one parallel step).
    fn step(&self, block: &BlockNode, t: &[i64]) -> Result<i64, VerifyError> {
        match self.sched {
            Some(s) if s.r.sequential_dims > 0 => {
                let j =
                    s.r.t
                        .matvec(t)
                        .map_err(|e| self.structural(block, e.to_string()))?;
                Ok(j[0])
            }
            _ => Ok(0),
        }
    }

    /// The executor's fused map of an access (`None` outside a group).
    fn fused(&self, block: &BlockNode, map: &AffineMap) -> Result<Option<AffineMap>, VerifyError> {
        self.sched
            .map(|s| s.r.transform_map(map))
            .transpose()
            .map_err(|e| self.structural(block, e.to_string()))
    }

    /// Invariant 3 for one access over the block's whole domain: every
    /// index in range and, in a group, the fused map in agreement.
    fn check_map(
        &self,
        block: &BlockNode,
        dom: Option<&IntBox>,
        acc: &Access<'_>,
        fused: Option<&AffineMap>,
        report: &mut VerifyReport,
    ) -> Result<(), VerifyError> {
        if self.mode == Mode::Maps
            && self.range_by_map(block, dom, acc)?
            && match fused {
                Some(f) => self.fused_by_map(block, dom, acc, f)?,
                None => true,
            }
        {
            return Ok(());
        }
        if sampled(block) {
            report.complete = false;
        }
        for t in sample_points(&block.domain, &block.extents, POINT_CAP) {
            report.points += 1;
            self.check_point(block, acc, fused, &t)?;
        }
        Ok(())
    }

    /// Range by the extreme corners of each row (Fourier–Motzkin bounds on
    /// a non-box domain). `Ok(false)`: undecided.
    fn range_by_map(
        &self,
        block: &BlockNode,
        dom: Option<&IntBox>,
        acc: &Access<'_>,
    ) -> Result<bool, VerifyError> {
        let buf = self.etdg.buffer(acc.buffer);
        let m = acc.map.matrix();
        if m.rows() != buf.dims.len() || m.cols() != block.extents.len() {
            return Ok(false);
        }
        let Some(dom) = dom else {
            let Ok(mut set) = ConstraintSet::from_box(
                &vec![0; block.extents.len()],
                &block.extents.iter().map(|&e| e as i64).collect::<Vec<_>>(),
            ) else {
                return Ok(false);
            };
            for c in block.domain.constraints() {
                set.push(c.clone());
            }
            for (i, (&o, &dim)) in acc.map.offset().iter().zip(&buf.dims).enumerate() {
                match set.row_bounds(m.row(i)) {
                    Ok(None) => return Ok(true),
                    Ok(Some((lo, hi))) if lo + o >= 0 && hi + o < dim as i64 => {}
                    _ => return Ok(false),
                }
            }
            return Ok(true);
        };
        for i in 0..m.rows() {
            let Some(corners) = dom.extreme_corners(m.row(i)) else {
                return Ok(true); // Empty domain.
            };
            for t in corners {
                self.check_point(block, acc, None, &t)?;
            }
        }
        Ok(true)
    }

    /// Fused-map agreement as the matrix identity `fused·T == M` with equal
    /// offsets; failing that, on a box, by the extreme corners of each row
    /// of the difference. `Ok(false)`: undecided.
    fn fused_by_map(
        &self,
        block: &BlockNode,
        dom: Option<&IntBox>,
        acc: &Access<'_>,
        fused: &AffineMap,
    ) -> Result<bool, VerifyError> {
        let Some(s) = self.sched else {
            return Ok(true);
        };
        let Ok(ft) = fused.matrix().matmul(&s.r.t) else {
            return Ok(false);
        };
        let m = acc.map.matrix();
        if ft == *m && fused.offset() == acc.map.offset() {
            return Ok(true);
        }
        let (Some(dom), true) = (dom, ft.rows() == m.rows() && ft.cols() == m.cols()) else {
            return Ok(false);
        };
        // Each row of (fused·T − M)·t + (o_f − o) is affine on the box: zero
        // at both of its extreme corners means zero everywhere.
        for i in 0..m.rows() {
            let diff: Vec<i64> = ft.row(i).iter().zip(m.row(i)).map(|(a, b)| a - b).collect();
            let Some(corners) = dom.extreme_corners(&diff) else {
                return Ok(true);
            };
            for t in corners {
                self.check_point(block, acc, Some(fused), &t)?;
            }
        }
        Ok(true)
    }

    /// Evaluates one access at one point, checking range and fused-map
    /// agreement; returns the data-space index.
    fn check_point(
        &self,
        block: &BlockNode,
        acc: &Access<'_>,
        fused: Option<&AffineMap>,
        t: &[i64],
    ) -> Result<Vec<i64>, VerifyError> {
        let structural = |e: ft_affine::AffineError| self.structural(block, e.to_string());
        let idx = acc.map.apply(t).map_err(structural)?;
        let buf = self.etdg.buffer(acc.buffer);
        if !buf.in_domain(&idx) {
            return Err(VerifyError::MapOutOfRange {
                group: self.group(),
                block: block.name.clone(),
                buffer: buf.name.clone(),
                kind: acc.kind,
                point: t.to_vec(),
                index: idx,
                dims: buf.dims.clone(),
            });
        }
        if let (Some(s), Some(fused)) = (self.sched, fused) {
            let j = s.r.t.matvec(t).map_err(structural)?;
            let fidx = fused.apply(&j).map_err(structural)?;
            if fidx != idx {
                return Err(VerifyError::FusedMapMismatch {
                    group: s.gi,
                    block: block.name.clone(),
                    buffer: buf.name.clone(),
                    point: t.to_vec(),
                    original: idx,
                    fused: fidx,
                });
            }
        }
        Ok(idx)
    }

    /// Invariant 4 for one read of a group-owned buffer.
    fn check_order(
        &self,
        mi: usize,
        block: &BlockNode,
        doms: &[Option<IntBox>],
        acc: &Access<'_>,
        writers: &Writers<'_>,
        report: &mut VerifyReport,
    ) -> Result<(), VerifyError> {
        if self.mode == Mode::Maps && self.order_by_map(mi, block, doms, acc, writers)? {
            return Ok(());
        }
        self.order_by_points(mi, block, acc, writers, report)
    }

    /// Order and coverage from the writers' shifted boxes. `Ok(false)`:
    /// undecided.
    fn order_by_map(
        &self,
        mi: usize,
        block: &BlockNode,
        doms: &[Option<IntBox>],
        acc: &Access<'_>,
        writers: &Writers<'_>,
    ) -> Result<bool, VerifyError> {
        let Some(read_box) = doms[mi].as_ref() else {
            return Ok(false);
        };
        let m = acc.map.matrix();
        if !writers.by_map || writers.list.iter().any(|w| w.map.matrix() != m) {
            return Ok(false);
        }
        let lead = |delta: &[i64]| -> i64 {
            match self.sched {
                Some(s) if s.r.sequential_dims > 0 => {
                    s.r.t.row(0).iter().zip(delta).map(|(a, b)| a * b).sum()
                }
                _ => 0,
            }
        };
        let mut unwritten = vec![read_box.clone()];
        // (first read point, δ) of the earliest order violation.
        let mut late: Option<(Vec<i64>, Vec<i64>)> = None;
        for w in &writers.list {
            let delta = match shift(m, w.map.offset(), acc.map.offset()) {
                Ok(Some(delta)) => delta,
                Ok(None) => continue, // No index in common.
                Err(_) => return Ok(false),
            };
            let Some(write_box) = doms[w.member].as_ref() else {
                return Ok(false);
            };
            let reach = write_box.shifted(&delta);
            let served = read_box.intersect(&reach);
            if served.is_empty() {
                continue;
            }
            let forwarded = delta.iter().all(|&d| d == 0) && w.member < mi;
            let ordered = lead(&delta) >= 1 || forwarded;
            if !ordered && late.as_ref().is_none_or(|(t, _)| served.lo < *t) {
                late = Some((served.lo.clone(), delta));
            }
            unwritten = unwritten.iter().flat_map(|b| b.minus(&reach)).collect();
        }
        let first_unwritten = unwritten.into_iter().map(|b| b.lo).min();
        // Report what a lexicographic sweep of the read points meets first.
        let buffer = self.etdg.buffer(acc.buffer).name.clone();
        let gi = self.group().unwrap_or_default();
        let index_at = |t: &[i64]| {
            acc.map
                .apply(t)
                .map_err(|e| self.structural(block, e.to_string()))
        };
        let late = late.filter(|(t, _)| first_unwritten.as_ref().is_none_or(|u| t < u));
        match (late, first_unwritten) {
            (Some((t, delta)), _) => {
                let from: Vec<i64> = t.iter().zip(&delta).map(|(a, d)| a - d).collect();
                Err(VerifyError::WavefrontOrder {
                    group: gi,
                    block: block.name.clone(),
                    buffer,
                    index: index_at(&t)?,
                    write_step: self.step(block, &from)?,
                    read_step: self.step(block, &t)?,
                    point: t,
                })
            }
            (None, Some(t)) => Err(VerifyError::UnwrittenRead {
                group: gi,
                block: block.name.clone(),
                buffer,
                index: index_at(&t)?,
                point: t,
            }),
            (None, None) => Ok(true),
        }
    }

    /// Per-point order and coverage: tabulate which writer point produces
    /// each index (first writer wins, as members and points run), then look
    /// every read point up. Unwritten reads are reported only when every
    /// writer was enumerated in full.
    fn order_by_points(
        &self,
        mi: usize,
        block: &BlockNode,
        acc: &Access<'_>,
        writers: &Writers<'_>,
        report: &mut VerifyReport,
    ) -> Result<(), VerifyError> {
        let mut written: HashMap<Vec<i64>, (i64, usize, Vec<i64>)> = HashMap::new();
        let mut complete = true;
        for member in writers.list.chunk_by(|a, b| a.member == b.member) {
            let wb = member[0].block;
            complete &= !sampled(wb);
            for t in sample_points(&wb.domain, &wb.extents, POINT_CAP) {
                report.points += 1;
                let step = self.step(wb, &t)?;
                for w in member {
                    let idx = w
                        .map
                        .apply(&t)
                        .map_err(|e| self.structural(wb, e.to_string()))?;
                    written
                        .entry(idx)
                        .or_insert_with(|| (step, w.member, t.clone()));
                }
            }
        }
        if !complete || sampled(block) {
            report.complete = false;
        }
        let buffer = || self.etdg.buffer(writers.buffer).name.clone();
        let gi = self.group().unwrap_or_default();
        for t in sample_points(&block.domain, &block.extents, POINT_CAP) {
            report.points += 1;
            let read_step = self.step(block, &t)?;
            let idx = acc
                .map
                .apply(&t)
                .map_err(|e| self.structural(block, e.to_string()))?;
            match written.get(&idx) {
                Some((write_step, w_mi, w_t)) => {
                    let ordered = *write_step < read_step
                        || (*write_step == read_step && *w_t == t && *w_mi < mi);
                    if !ordered {
                        return Err(VerifyError::WavefrontOrder {
                            group: gi,
                            block: block.name.clone(),
                            buffer: buffer(),
                            point: t,
                            index: idx,
                            write_step: *write_step,
                            read_step,
                        });
                    }
                }
                None if complete => {
                    return Err(VerifyError::UnwrittenRead {
                        group: gi,
                        block: block.name.clone(),
                        buffer: buffer(),
                        point: t,
                        index: idx,
                    });
                }
                None => {}
            }
        }
        Ok(())
    }
}

/// Invariants 3 and 4 for one launch group: every write's range and fused
/// map first, then per member every read's, then the order and coverage
/// of its reads of buffers only this group writes.
pub(crate) fn check_group(
    compiled: &CompiledProgram,
    gi: usize,
    group: &ScheduledGroup,
    mode: Mode,
    report: &mut VerifyReport,
) -> Result<(), VerifyError> {
    let etdg = &compiled.etdg;
    let scope = Scope {
        etdg,
        sched: Some(Sched {
            gi,
            r: &group.reordering,
        }),
        mode,
    };
    let blocks: Vec<&BlockNode> = group.members.iter().map(|&m| etdg.block(m)).collect();
    let doms: Vec<Option<IntBox>> = blocks.iter().map(|b| domain_box(b)).collect();

    for (block, dom) in blocks.iter().zip(&doms) {
        let (_, writes) = accesses(block);
        report.maps += writes.len();
        for acc in &writes {
            let fused = scope.fused(block, acc.map)?;
            scope.check_map(block, dom.as_ref(), acc, fused.as_ref(), report)?;
        }
    }

    let members: HashSet<BlockId> = group.members.iter().copied().collect();
    let group_owns = |b: BufId| {
        let writers = etdg.writers_of(b);
        !writers.is_empty() && writers.iter().all(|w| members.contains(w))
    };
    let mut writer_sets: Vec<Writers<'_>> = Vec::new();
    for (mi, block) in blocks.iter().enumerate() {
        let (reads, _) = accesses(block);
        report.maps += reads.len();
        for acc in &reads {
            let fused = scope.fused(block, acc.map)?;
            scope.check_map(block, doms[mi].as_ref(), acc, fused.as_ref(), report)?;
        }
        for acc in &reads {
            if !group_owns(acc.buffer) {
                // Produced by an earlier group (or an input): ordered by
                // group execution order, not by this wavefront.
                continue;
            }
            let k = match writer_sets.iter().position(|w| w.buffer == acc.buffer) {
                Some(k) => k,
                None => {
                    writer_sets.push(Writers::of(acc.buffer, &blocks, &doms));
                    writer_sets.len() - 1
                }
            };
            scope.check_order(mi, block, &doms, acc, &writer_sets[k], report)?;
        }
    }
    Ok(())
}

/// Invariant 3's range half for blocks that belong to no launch group.
/// Such blocks execute through the interpreter path — no reordering, no
/// fused maps, so invariants 1, 2 and 4 are vacuous — but a map that walks
/// out of its buffer must still be rejected before execution.
pub(crate) fn check_ungrouped(
    compiled: &CompiledProgram,
    mode: Mode,
    report: &mut VerifyReport,
) -> Result<(), VerifyError> {
    let etdg = &compiled.etdg;
    let scope = Scope {
        etdg,
        sched: None,
        mode,
    };
    let grouped: HashSet<BlockId> = compiled
        .groups
        .iter()
        .flat_map(|g| g.members.iter().copied())
        .collect();
    for (bi, block) in etdg.blocks.iter().enumerate() {
        if grouped.contains(&BlockId(bi)) {
            continue;
        }
        let dom = domain_box(block);
        let (reads, writes) = accesses(block);
        report.maps += reads.len() + writes.len();
        for acc in reads.iter().chain(&writes) {
            scope.check_map(block, dom.as_ref(), acc, None, report)?;
        }
    }
    Ok(())
}

/// One read of a scheduled member checked against a caller-supplied
/// fused map (see [`crate::check_fused_read`]).
pub(crate) fn check_fused_read(
    compiled: &CompiledProgram,
    gi: usize,
    member: BlockId,
    read: usize,
    fused: &AffineMap,
    mode: Mode,
) -> Result<(), VerifyError> {
    let block = compiled.etdg.block(member);
    let missing = |detail: String| VerifyError::Structural {
        group: Some(gi),
        block: block.name.clone(),
        detail,
    };
    let group = compiled
        .groups
        .get(gi)
        .ok_or_else(|| missing(format!("no launch group {gi}")))?;
    let Some(RegionRead::Buffer { buffer, map }) = block.reads.get(read) else {
        return Err(missing(format!("no buffer read {read}")));
    };
    let scope = Scope {
        etdg: &compiled.etdg,
        sched: Some(Sched {
            gi,
            r: &group.reordering,
        }),
        mode,
    };
    let acc = Access {
        buffer: *buffer,
        map,
        kind: AccessKind::Read,
    };
    let mut report = VerifyReport::default();
    scope.check_map(
        block,
        domain_box(block).as_ref(),
        &acc,
        Some(fused),
        &mut report,
    )
}
